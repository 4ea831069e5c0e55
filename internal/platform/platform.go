// Package platform encodes the three experimental platforms of the paper's
// Table 1 — ASCI Cplant (Linux cluster, ENFS), SGI Origin2000 (XFS), and
// IBM SP Blue Horizon (GPFS) — both as the published configuration facts
// (for rendering Table 1) and as simulator parameter sets that place each
// platform's simulated bandwidth in the regime the paper measured.
//
// Absolute bandwidths are not reproducible without the 2003 hardware; the
// parameters are calibrated so the *shape* of Figure 8 holds: per-platform
// magnitudes, file locking worst and flat, process-rank ordering best,
// graph-coloring in between. EXPERIMENTS.md records the calibration.
package platform

import (
	"fmt"

	"atomio/internal/lock"
	"atomio/internal/mpi"
	"atomio/internal/pfs"
	"atomio/internal/sim"
)

// LockStyle selects the lock-manager flavour a platform provides.
type LockStyle int

const (
	// NoLocking marks platforms without byte-range locking (Cplant ENFS:
	// "the most notable is the absence of file locking on Cplant").
	NoLocking LockStyle = iota
	// CentralLocking is the NFS/XFS-style central lock manager.
	CentralLocking
	// DistributedLocking is the GPFS-style token manager.
	DistributedLocking
)

// String names the style.
func (s LockStyle) String() string {
	switch s {
	case NoLocking:
		return "none"
	case CentralLocking:
		return "central"
	case DistributedLocking:
		return "distributed"
	default:
		return fmt.Sprintf("LockStyle(%d)", int(s))
	}
}

// Profile is one platform: the Table 1 facts plus simulator parameters.
type Profile struct {
	// Table 1 facts.
	Name        string
	FSName      string
	CPUType     string
	CPUSpeedMHz int
	Network     string
	IOServers   int   // 0 renders as "-" (Origin2000 is a single NUMA system)
	PeakIOBW    int64 // bytes/s, the table's "Peak I/O bandwidth"

	// Simulator parameters.
	LockStyle    LockStyle
	SimServers   int // server count used by the simulator
	StripeMode   pfs.StripeMode
	StripeSize   int64
	ServerModel  sim.LinearCost // per-server service
	ClientModel  sim.LinearCost // per-client link
	SegOverhead  sim.VTime      // per extra non-contiguous segment
	Cache        pfs.CacheConfig
	NetModel     sim.LinearCost // MPI message cost
	SendOverhead sim.VTime
	RecvOverhead sim.VTime
	LockMsgCost  sim.VTime
	LockService  sim.VTime
	LockLocal    sim.VTime
	LockRevoke   sim.VTime
}

// SupportsLocking reports whether the platform has byte-range locking.
func (p Profile) SupportsLocking() bool { return p.LockStyle != NoLocking }

// PFSConfig returns the file-system configuration for this platform.
// storeData selects whether files keep who wrote each byte.
func (p Profile) PFSConfig(storeData bool) pfs.Config {
	return pfs.Config{
		Servers:     p.SimServers,
		StripeSize:  p.StripeSize,
		Mode:        p.StripeMode,
		ServerModel: p.ServerModel,
		ClientModel: p.ClientModel,
		SegOverhead: p.SegOverhead,
		StoreData:   storeData,
		Cache:       p.Cache,
	}
}

// MPIConfig returns the message-passing configuration for procs ranks.
func (p Profile) MPIConfig(procs int) mpi.Config {
	return mpi.Config{
		Procs:        procs,
		Net:          p.NetModel,
		SendOverhead: p.SendOverhead,
		RecvOverhead: p.RecvOverhead,
	}
}

// NewLockManager returns a fresh lock manager of the platform's flavour, or
// nil for platforms without locking.
func (p Profile) NewLockManager() lock.Manager {
	switch p.LockStyle {
	case CentralLocking:
		return lock.NewCentral(lock.CentralConfig{
			MsgCost:     p.LockMsgCost,
			ServiceTime: p.LockService,
		})
	case DistributedLocking:
		return lock.NewDistributed(lock.DistributedConfig{
			LocalCost:   p.LockLocal,
			MsgCost:     p.LockMsgCost,
			ServiceTime: p.LockService,
			RevokeCost:  p.LockRevoke,
		})
	default:
		return nil
	}
}

const mb = 1 << 20

// Cplant is the ASCI Cplant profile: an Alpha Linux cluster running ENFS,
// an NFS derivative without file locking, where each compute node is bound
// to one of 12 I/O servers at boot.
func Cplant() Profile {
	return Profile{
		//atomiovet:allow registry the paper's published Table 1 spelling, kept verbatim in figure and bench output
		Name:        "Cplant",
		FSName:      "ENFS",
		CPUType:     "Alpha",
		CPUSpeedMHz: 500,
		Network:     "Myrinet",
		IOServers:   12,
		PeakIOBW:    50 * mb,

		LockStyle:   NoLocking,
		SimServers:  12,
		StripeMode:  pfs.ClientAffinity,
		StripeSize:  64 << 10,
		ServerModel: sim.LinearCost{Latency: 400 * sim.Microsecond, BytesPerSec: 5 * mb / 2},
		ClientModel: sim.LinearCost{Latency: 100 * sim.Microsecond, BytesPerSec: 11 * mb / 5},
		SegOverhead: 30 * sim.Microsecond,
		Cache: pfs.CacheConfig{
			WriteBehind: true,
			MemModel:    sim.LinearCost{Latency: 2 * sim.Microsecond, BytesPerSec: 300 * mb},
		},
		NetModel:     sim.LinearCost{Latency: 25 * sim.Microsecond, BytesPerSec: 120 * mb},
		SendOverhead: 3 * sim.Microsecond,
		RecvOverhead: 3 * sim.Microsecond,
	}
}

// Origin2000 is the NCSA SGI Origin2000 profile: a ccNUMA system running
// XFS with a central lock manager. The I/O-server count renders as "-" in
// Table 1; the simulator models its RAID back end as 8 parallel service
// queues.
func Origin2000() Profile {
	return Profile{
		//atomiovet:allow registry the paper's published Table 1 spelling, kept verbatim in figure and bench output
		Name:        "Origin2000",
		FSName:      "XFS",
		CPUType:     "R10000",
		CPUSpeedMHz: 195,
		Network:     "Gigabit Ethernet",
		IOServers:   0,
		PeakIOBW:    4096 * mb,

		LockStyle:   CentralLocking,
		SimServers:  8,
		StripeMode:  pfs.RoundRobin,
		StripeSize:  128 << 10,
		ServerModel: sim.LinearCost{Latency: 60 * sim.Microsecond, BytesPerSec: 7 * mb},
		ClientModel: sim.LinearCost{Latency: 10 * sim.Microsecond, BytesPerSec: 11 * mb},
		SegOverhead: 10 * sim.Microsecond,
		Cache: pfs.CacheConfig{
			WriteBehind: true,
			MemModel:    sim.LinearCost{Latency: 1 * sim.Microsecond, BytesPerSec: 600 * mb},
		},
		NetModel:     sim.LinearCost{Latency: 8 * sim.Microsecond, BytesPerSec: 250 * mb},
		SendOverhead: 2 * sim.Microsecond,
		RecvOverhead: 2 * sim.Microsecond,
		LockMsgCost:  15 * sim.Microsecond,
		LockService:  30 * sim.Microsecond,
	}
}

// IBMSP is the SDSC Blue Horizon IBM SP profile: Power3 nodes on a Colony
// switch running GPFS with its distributed token-based lock manager.
func IBMSP() Profile {
	return Profile{
		//atomiovet:allow registry the paper's published Table 1 spelling, kept verbatim in figure and bench output
		Name:        "IBM SP",
		FSName:      "GPFS",
		CPUType:     "Power3",
		CPUSpeedMHz: 375,
		Network:     "Colony switch",
		IOServers:   12,
		PeakIOBW:    1536 * mb,

		LockStyle:   DistributedLocking,
		SimServers:  12,
		StripeMode:  pfs.RoundRobin,
		StripeSize:  256 << 10,
		ServerModel: sim.LinearCost{Latency: 120 * sim.Microsecond, BytesPerSec: 4 * mb},
		ClientModel: sim.LinearCost{Latency: 30 * sim.Microsecond, BytesPerSec: 7 * mb},
		SegOverhead: 20 * sim.Microsecond,
		Cache: pfs.CacheConfig{
			WriteBehind: true,
			MemModel:    sim.LinearCost{Latency: 1 * sim.Microsecond, BytesPerSec: 500 * mb},
		},
		NetModel:     sim.LinearCost{Latency: 20 * sim.Microsecond, BytesPerSec: 140 * mb},
		SendOverhead: 3 * sim.Microsecond,
		RecvOverhead: 3 * sim.Microsecond,
		LockMsgCost:  20 * sim.Microsecond,
		LockService:  25 * sim.Microsecond,
		LockLocal:    2 * sim.Microsecond,
		LockRevoke:   200 * sim.Microsecond,
	}
}

// All returns the three platforms in the paper's Table 1 order.
func All() []Profile {
	return []Profile{Cplant(), Origin2000(), IBMSP()}
}
