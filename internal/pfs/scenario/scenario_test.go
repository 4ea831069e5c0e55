package scenario

import (
	"strings"
	"testing"

	"atomio/internal/pfs"
	"atomio/internal/sim"
)

func baseCfg() pfs.Config {
	return pfs.Config{
		Servers:     4,
		StripeSize:  16,
		Mode:        pfs.ClientAffinity,
		ServerModel: sim.LinearCost{Latency: 100 * sim.Microsecond, BytesPerSec: 1 << 20},
	}
}

// Perturbs reports whether the profile changes virtual timing relative to
// the healthy configuration (slow servers or skewed affinity); such runs
// are explicitly non-comparable to healthy output. Pure rebalances also
// change timing but remain ordinary healthy configurations at their new
// server count.
func (p Profile) Perturbs() bool { return len(p.Slow) > 0 || len(p.Affinity) > 0 }

func TestHealthyIsIdentity(t *testing.T) {
	cfg, err := Healthy().Apply(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Servers != 4 || len(cfg.Degraded) != 0 || len(cfg.Affinity) != 0 {
		t.Fatalf("healthy perturbed the config: %+v", cfg)
	}
	if Healthy().Perturbs() {
		t.Fatal("healthy should not report perturbing")
	}
}

func TestSlowServerDegradesModel(t *testing.T) {
	p := SlowServer(2, 4)
	if !p.Perturbs() {
		t.Fatal("slow server must report perturbing")
	}
	cfg, err := p.Apply(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	m := cfg.Degraded[2]
	if m == nil {
		t.Fatal("server 2 not degraded")
	}
	if m.Latency != 400*sim.Microsecond || m.BytesPerSec != (1<<20)/4 {
		t.Fatalf("degraded model %+v, want 4x latency and 1/4 bandwidth", *m)
	}
	if cfg.Degraded[0] != nil || cfg.Degraded[1] != nil || cfg.Degraded[3] != nil {
		t.Fatal("healthy servers degraded")
	}
}

func TestSlowServerRejectsBadFactor(t *testing.T) {
	p := Profile{Name: "bad", Slow: map[int]float64{0: 0}}
	if _, err := p.Apply(baseCfg()); err == nil {
		t.Fatal("zero slow factor must be rejected")
	}
}

func TestHotSpotSkewsAffinity(t *testing.T) {
	p := HotSpot(0, 4)
	cfg, err := p.Apply(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	for _, s := range cfg.Affinity {
		if s == 0 {
			hot++
		}
	}
	if hot != 2 || len(cfg.Affinity) != 4 {
		t.Fatalf("hotspot affinity %v, want half pointing at server 0", cfg.Affinity)
	}
}

func TestHotSpotNeedsAffinityMode(t *testing.T) {
	cfg := baseCfg()
	cfg.Mode = pfs.RoundRobin
	if _, err := HotSpot(0, 4).Apply(cfg); err == nil ||
		!strings.Contains(err.Error(), "client-affinity") {
		t.Fatal("affinity override on round-robin config must be rejected")
	}
}

func TestRebalanceChangesServerCount(t *testing.T) {
	cfg, err := Rebalance(2).Apply(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Servers != 2 {
		t.Fatalf("servers = %d, want 2", cfg.Servers)
	}
	if Rebalance(2).Perturbs() {
		t.Fatal("a pure rebalance is a healthy configuration, not a perturbation")
	}
}

func TestApplyValidatesResult(t *testing.T) {
	// Rebalancing below a degraded server's index must fail validation.
	p := Profile{Name: "broken", Servers: 2, Slow: map[int]float64{3: 2}}
	if _, err := p.Apply(baseCfg()); err == nil {
		t.Fatal("degraded index beyond rebalanced server count must be rejected")
	}
}

func TestDegradeNeverReachesInfinitelyFast(t *testing.T) {
	m := sim.LinearCost{Latency: sim.Microsecond, BytesPerSec: 1 << 20}
	d := Degrade(m, 1e9) // far beyond the model's bandwidth
	if d.BytesPerSec < 1 {
		t.Fatalf("degraded BytesPerSec = %d; 0 means infinitely fast to sim.LinearCost", d.BytesPerSec)
	}
	// A genuinely infinite model (0) stays infinite: only latency scales.
	if d := Degrade(sim.LinearCost{Latency: sim.Microsecond}, 4); d.BytesPerSec != 0 {
		t.Fatalf("infinite-bandwidth model gained a bandwidth: %d", d.BytesPerSec)
	}
}
