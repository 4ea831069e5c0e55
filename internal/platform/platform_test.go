package platform

import (
	"strings"
	"testing"

	"atomio/internal/lock"
	"atomio/internal/pfs"
)

func TestAllHasThreePlatformsInTableOrder(t *testing.T) {
	ps := All()
	if len(ps) != 3 {
		t.Fatalf("platforms = %d", len(ps))
	}
	wantNames := []string{"Cplant", "Origin2000", "IBM SP"}
	wantFS := []string{"ENFS", "XFS", "GPFS"}
	for i, p := range ps {
		if p.Name != wantNames[i] || p.FSName != wantFS[i] {
			t.Errorf("platform %d = %s/%s, want %s/%s", i, p.Name, p.FSName, wantNames[i], wantFS[i])
		}
	}
}

func TestTable1Facts(t *testing.T) {
	// Pin the Table 1 facts from the paper.
	c, o, s := Cplant(), Origin2000(), IBMSP()
	if c.CPUType != "Alpha" || c.CPUSpeedMHz != 500 || c.IOServers != 12 || c.PeakIOBW != 50<<20 {
		t.Errorf("Cplant row wrong: %+v", c)
	}
	if o.CPUType != "R10000" || o.CPUSpeedMHz != 195 || o.IOServers != 0 || o.PeakIOBW != 4096<<20 {
		t.Errorf("Origin2000 row wrong: %+v", o)
	}
	if s.CPUType != "Power3" || s.CPUSpeedMHz != 375 || s.IOServers != 12 || s.PeakIOBW != 1536<<20 {
		t.Errorf("IBM SP row wrong: %+v", s)
	}
}

func TestLockStyles(t *testing.T) {
	if Cplant().SupportsLocking() {
		t.Error("Cplant/ENFS must not support locking (paper §4)")
	}
	if Cplant().NewLockManager() != nil {
		t.Error("Cplant lock manager should be nil")
	}
	if m := Origin2000().NewLockManager(); m == nil || m.Name() != "central" {
		t.Error("Origin2000 should use a central lock manager")
	}
	if m := IBMSP().NewLockManager(); m == nil || m.Name() != "distributed" {
		t.Error("IBM SP should use a distributed (GPFS token) lock manager")
	}
	if _, ok := IBMSP().NewLockManager().(*lock.Distributed); !ok {
		t.Error("IBM SP manager has wrong concrete type")
	}
}

func TestCplantUsesClientAffinity(t *testing.T) {
	// ENFS binds each compute node to one server.
	if Cplant().StripeMode != pfs.ClientAffinity {
		t.Error("Cplant must use client-affinity server mapping")
	}
	if Origin2000().StripeMode != pfs.RoundRobin || IBMSP().StripeMode != pfs.RoundRobin {
		t.Error("XFS/GPFS should stripe round-robin")
	}
}

func TestPFSConfigWiring(t *testing.T) {
	p := IBMSP()
	cfg := p.PFSConfig(true)
	if cfg.Servers != p.SimServers || !cfg.StoreData || cfg.SegOverhead != p.SegOverhead {
		t.Errorf("PFSConfig wiring wrong: %+v", cfg)
	}
	if !cfg.Cache.Enabled || !cfg.Cache.WriteBehind {
		t.Error("platform caches should model write-behind")
	}
	fs, err := pfs.New(cfg) // every platform config must construct
	if err != nil {
		t.Fatal(err)
	}
	if fs.Config().Servers != p.SimServers {
		t.Error("fs construction lost config")
	}
}

func TestMPIConfigWiring(t *testing.T) {
	cfg := Cplant().MPIConfig(8)
	if cfg.Procs != 8 || cfg.Net == nil {
		t.Errorf("MPIConfig wiring wrong: %+v", cfg)
	}
}

func TestTable1Render(t *testing.T) {
	out := Table1()
	for _, want := range []string{
		"Cplant", "Origin2000", "IBM SP",
		"ENFS", "XFS", "GPFS",
		"Alpha", "R10000", "Power3",
		"500 MHz", "195 MHz", "375 MHz",
		"Myrinet", "Colony",
		"50 MB/s", "4 GB/s", "1.5 GB/s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 render missing %q:\n%s", want, out)
		}
	}
	// Origin2000 has no discrete I/O server count.
	if !strings.Contains(out, "-") {
		t.Errorf("Table 1 should render '-' for Origin2000 servers:\n%s", out)
	}
}

func TestLockStyleString(t *testing.T) {
	if NoLocking.String() != "none" || CentralLocking.String() != "central" ||
		DistributedLocking.String() != "distributed" || LockStyle(7).String() == "" {
		t.Fatal("LockStyle strings")
	}
}
