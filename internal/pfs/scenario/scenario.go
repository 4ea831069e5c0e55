// Package scenario defines per-server perturbation profiles for the
// striped multi-server file system: a named, declarative description of how
// a run's I/O servers deviate from the healthy uniform configuration — a
// slow (degraded) server, a hot server absorbing a skewed share of the
// client affinity map, or a rebalanced server count.
//
// A profile is applied to a pfs.Config just before the file system is
// built, so the same experiment grid can be swept across scenarios (see
// runner.DegradedGrid and `figure8 -degraded`). Healthy profiles leave the
// simulation's determinism contract intact; profiles that slow servers or
// skew affinity change virtual service times and are explicitly
// non-comparable to healthy output — they answer "what does this failure
// cost", not "what does the paper's Figure 8 show".
package scenario

import (
	"fmt"
	"sort"

	"atomio/internal/pfs"
	"atomio/internal/sim"
)

// Profile is one per-server perturbation: any combination of a server-count
// override, per-server service slowdowns, and an affinity-map override.
// The zero value (or Healthy()) perturbs nothing.
type Profile struct {
	// Name labels the scenario in cell IDs and result records.
	Name string
	// Servers, when positive, overrides the configured I/O-server count —
	// the rebalancing knob (fewer servers after a failure, more after an
	// expansion).
	Servers int
	// Slow maps a server index to a service-time slowdown factor (> 1 is
	// slower: latency multiplied, bandwidth divided).
	Slow map[int]float64
	// Affinity overrides the ClientAffinity rank→server map (rank r is
	// served by Affinity[r % len(Affinity)]). Only meaningful on
	// affinity-mode configurations.
	Affinity []int
}

// Healthy is the identity profile: the unperturbed configuration.
func Healthy() Profile { return Profile{Name: "healthy"} }

// SlowServer degrades one server's service model by factor (latency ×
// factor, bandwidth ÷ factor) — the single-slow-server scenario.
func SlowServer(server int, factor float64) Profile {
	return Profile{
		Name: fmt.Sprintf("slow%dx%g", server, factor),
		Slow: map[int]float64{server: factor},
	}
}

// HotSpot skews a servers-wide affinity map so every second client lands on
// the hot server while the rest keep their round-robin boot assignment —
// the hot-server scenario for ClientAffinity file systems.
func HotSpot(hot, servers int) Profile {
	aff := make([]int, servers)
	for i := range aff {
		if i%2 == 0 {
			aff[i] = hot
		} else {
			aff[i] = i
		}
	}
	return Profile{Name: fmt.Sprintf("hotspot%d", hot), Affinity: aff}
}

// Rebalance changes the server count with every server healthy — shrink
// after failures, grow after expansion.
func Rebalance(servers int) Profile {
	return Profile{Name: fmt.Sprintf("servers%d", servers), Servers: servers}
}

// Degrade scales a service model by factor: latency multiplied, sustained
// bandwidth divided. factor must be positive. A finite bandwidth never
// degrades to zero — sim.LinearCost treats BytesPerSec == 0 as infinitely
// fast, the opposite of degraded — so it bottoms out at 1 byte/s.
func Degrade(m sim.LinearCost, factor float64) sim.LinearCost {
	out := sim.LinearCost{
		Latency:     sim.VTime(float64(m.Latency) * factor),
		BytesPerSec: int64(float64(m.BytesPerSec) / factor),
	}
	if m.BytesPerSec > 0 && out.BytesPerSec < 1 {
		out.BytesPerSec = 1
	}
	return out
}

// Apply returns cfg with the profile's perturbations applied, validating
// the result. Slow factors must be positive; affinity overrides require an
// affinity-mode configuration.
func (p Profile) Apply(cfg pfs.Config) (pfs.Config, error) {
	if p.Servers > 0 {
		cfg.Servers = p.Servers
	}
	if len(p.Slow) > 0 {
		// Walk the slow set in ascending server order so a profile with
		// several bad factors always rejects on the same one.
		servers := make([]int, 0, len(p.Slow))
		for server := range p.Slow {
			servers = append(servers, server)
		}
		sort.Ints(servers)
		degraded := make(map[int]*sim.LinearCost, len(p.Slow))
		for _, server := range servers {
			factor := p.Slow[server]
			if factor <= 0 {
				return cfg, fmt.Errorf("scenario %s: slow factor for server %d must be positive, got %g",
					p.Name, server, factor)
			}
			m := Degrade(cfg.ServerModel, factor)
			degraded[server] = &m
		}
		cfg.Degraded = degraded
	}
	if len(p.Affinity) > 0 {
		if cfg.Mode != pfs.ClientAffinity {
			return cfg, fmt.Errorf("scenario %s: affinity override needs a client-affinity file system, got %s",
				p.Name, cfg.Mode)
		}
		cfg.Affinity = append([]int(nil), p.Affinity...)
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("scenario %s: %w", p.Name, err)
	}
	return cfg, nil
}
