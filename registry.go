package atomio

import (
	"fmt"
	"strings"
	"sync"

	"atomio/internal/core"
	"atomio/internal/pfs/scenario"
	"atomio/internal/platform"
	"atomio/internal/sim/fault"
)

// registry is a named-constructor table shared by the strategy, platform
// and scenario registries: registration preserves insertion order (the
// paper's presentation order for the built-ins), duplicates are errors,
// and unknown-name lookups report the registered names.
type registry[T any] struct {
	kind string
	mu   sync.RWMutex
	make map[string]func() T
	// names preserves registration order for listings; error messages
	// use the same order so they stay deterministic.
	names []string
}

func newRegistry[T any](kind string) *registry[T] {
	return &registry[T]{kind: kind, make: map[string]func() T{}}
}

func (r *registry[T]) register(name string, make func() T) error {
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("atomio: empty %s name", r.kind)
	}
	if make == nil {
		return fmt.Errorf("atomio: nil %s constructor for %q", r.kind, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.make[name]; dup {
		return fmt.Errorf("atomio: %s %q already registered", r.kind, name)
	}
	r.make[name] = make
	r.names = append(r.names, name)
	return nil
}

func (r *registry[T]) get(name string) (T, error) {
	r.mu.RLock()
	mk, ok := r.make[name]
	r.mu.RUnlock()
	if !ok {
		var zero T
		return zero, fmt.Errorf("atomio: unknown %s %q (registered: %s)",
			r.kind, name, strings.Join(r.list(), ", "))
	}
	return mk(), nil
}

func (r *registry[T]) list() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.names...)
}

var (
	strategyRegistry = newRegistry[core.Strategy]("strategy")
	platformRegistry = newRegistry[Profile]("platform")
	scenarioRegistry = newRegistry[scenario.Profile]("scenario")
	faultRegistry    = newRegistry[fault.Script]("fault script")
)

// RegisterStrategy adds an atomicity strategy to the registry under the
// name the constructed strategy reports. Registering a name twice is an
// error, never a panic.
func RegisterStrategy(make func() core.Strategy) error {
	if make == nil {
		return fmt.Errorf("atomio: nil strategy constructor")
	}
	s := make()
	if s == nil {
		return fmt.Errorf("atomio: strategy constructor returned nil")
	}
	return strategyRegistry.register(s.Name(), make)
}

// RegisterPlatform adds a platform profile to the registry under the
// constructed profile's Table 1 name.
func RegisterPlatform(make func() Profile) error {
	if make == nil {
		return fmt.Errorf("atomio: nil platform constructor")
	}
	return platformRegistry.register(make().Name, make)
}

// RegisterScenario adds a degraded-server scenario to the registry under
// the constructed profile's name.
func RegisterScenario(make func() scenario.Profile) error {
	if make == nil {
		return fmt.Errorf("atomio: nil scenario constructor")
	}
	return scenarioRegistry.register(make().Name, make)
}

// RegisterFault adds a named failure-injection script to the registry
// under the constructed script's name. Scripts are pure data: the
// constructor is re-run per lookup, so callers may mutate their copy.
func RegisterFault(make func() fault.Script) error {
	if make == nil {
		return fmt.Errorf("atomio: nil fault-script constructor")
	}
	return faultRegistry.register(make().Name, make)
}

// StrategyByName returns a fresh instance of the registered strategy; an
// unknown name is reported with the registered names.
func StrategyByName(name string) (core.Strategy, error) {
	return strategyRegistry.get(name)
}

// PlatformByName returns the registered platform profile by Table 1 name.
func PlatformByName(name string) (Profile, error) {
	return platformRegistry.get(name)
}

// ScenarioByName returns the registered degraded-server scenario profile.
func ScenarioByName(name string) (scenario.Profile, error) {
	return scenarioRegistry.get(name)
}

// FaultByName returns a fresh copy of the registered failure-injection
// script.
func FaultByName(name string) (fault.Script, error) {
	return faultRegistry.get(name)
}

// Strategies lists the registered strategy names in registration order.
func Strategies() []string { return strategyRegistry.list() }

// Platforms lists the registered platform names in registration order
// (the paper's Table 1 order for the built-ins).
func Platforms() []string { return platformRegistry.list() }

// Scenarios lists the registered scenario names in registration order.
func Scenarios() []string { return scenarioRegistry.list() }

// Faults lists the registered fault-script names in registration order.
func Faults() []string { return faultRegistry.list() }

// Profiles returns every registered platform profile in registration
// order.
func Profiles() []Profile {
	names := Platforms()
	out := make([]Profile, 0, len(names))
	for _, name := range names {
		p, err := PlatformByName(name)
		if err != nil {
			continue
		}
		out = append(out, p)
	}
	return out
}

// The built-ins: the paper's strategies (plus the §3.2 listio and the
// two-phase collective-buffering extensions), the Table 1 platforms, the
// degraded-server scenarios the scenario grid sweeps, and the named
// failure-injection scripts the fault fleet draws from.
func init() {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	for _, mk := range []func() core.Strategy{
		func() core.Strategy { return core.Locking{} },
		func() core.Strategy { return core.Coloring{} },
		func() core.Strategy { return core.RankOrder{} },
		func() core.Strategy { return core.ListIO{} },
		func() core.Strategy { return core.TwoPhase{} },
	} {
		must(RegisterStrategy(mk))
	}
	for _, mk := range []func() Profile{
		platform.Cplant, platform.Origin2000, platform.IBMSP,
	} {
		must(RegisterPlatform(mk))
	}
	must(RegisterScenario(scenario.Healthy))
	must(RegisterScenario(func() scenario.Profile { return scenario.SlowServer(0, 4) }))
	must(RegisterScenario(func() scenario.Profile { return scenario.HotSpot(0, 12) }))
	must(RegisterScenario(func() scenario.Profile { return scenario.Rebalance(6) }))
	for _, mk := range []func() fault.Script{
		fault.ServerOutage, fault.ServerBlip, fault.UnlockDropLease,
		fault.UnlockDupScript, fault.LockReorder, fault.WriterCrashEarly,
	} {
		must(RegisterFault(mk))
	}
}
