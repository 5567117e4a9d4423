package traffic

import (
	"fmt"

	"occamy/internal/arch"
	"occamy/internal/compiler"
	"occamy/internal/cpu"
	"occamy/internal/osched"
	"occamy/internal/workload"
)

// Scenario is a built, runnable traffic run: system + scheduler + injector,
// with every arrival's task precompiled into a disjoint data segment.
type Scenario struct {
	Spec  Spec
	Kind  arch.Kind
	Sys   *arch.System
	Sched *osched.Scheduler
	Src   *Source
	Trace *Trace

	compiled []*compiler.Compiled
	names    []string
}

// Build materializes spec on a freshly built system of the given
// architecture. opts.Seed seeds the trace unless spec.Seed overrides; the
// remaining options (faults, telemetry, legacy tick, watchdog) pass through
// to arch.Build unchanged, so every engine feature composes with traffic.
func Build(kind arch.Kind, spec Spec, opts arch.Options) (*Scenario, error) {
	spec.ApplyDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	tr := Generate(&spec, opts.Seed)
	sys, err := osched.BuildHost(kind, spec.Cores, opts)
	if err != nil {
		return nil, err
	}
	sched := osched.NewScheduler(sys, spec.Slice)
	sc := &Scenario{Spec: spec, Kind: kind, Sys: sys, Sched: sched, Trace: tr}
	reg := workload.NewRegistry()
	for i, a := range tr.Arrivals {
		k := *reg.Kernel(tr.Kernels[a.Kernel])
		k.Elems = int(a.Elems)
		k.Repeats = int(a.Repeats)
		name := fmt.Sprintf("t%d.a%d.%s", a.Tenant, i, k.Name)
		w := &workload.Workload{Name: name, Phases: []*workload.Kernel{&k}}
		comp, err := osched.CompileTask(sys, w, i, opts.Seed)
		if err != nil {
			return nil, err
		}
		sc.compiled = append(sc.compiled, comp)
		sc.names = append(sc.names, name)
		sched.AddTask(name, cpu.NewState(comp.Program))
	}
	src := NewSource(&sc.Spec, tr, sched)
	sc.Src = src
	sys.Tele.WireTraffic(src) // nil-safe: no-op without -telemetry
	// Tick order: injector first, scheduler second, so an arrival is
	// dispatchable the cycle it lands.
	sys.Engine.Register(src)
	sys.Engine.Register(sched)
	osched.ParkCores(sys)
	return sc, nil
}

// Run drives the scenario to its stop condition: drain mode stops when
// every task completed or was canceled; otherwise at the pinned
// Spec.StopCycle (the Source's wake at that cycle keeps the stop
// bit-identical between skip-ahead and legacy ticking). maxCycles is the
// hard safety budget.
func (sc *Scenario) Run(maxCycles uint64) error {
	done := sc.Sched.Done
	if !sc.Spec.Drain {
		stop := sc.Spec.StopCycle()
		done = func() bool { return sc.Sys.Engine.Cycle() >= stop || sc.Sched.Done() }
	}
	_, err := sc.Sys.Engine.RunUntil(done, maxCycles)
	return err
}

// DefaultBudget is a generous per-run cycle cap for Run: overload keeps
// queues full past the horizon, but a drain can only serve as long as total
// offered work, bounded by Load.
func (sc *Scenario) DefaultBudget() uint64 {
	mult := uint64(4 + 4*sc.Spec.Load)
	return sc.Spec.Horizon*mult + 2_000_000
}

// VerifyCompleted checks the functional results of every task that ran to
// completion (incomplete, suspended and canceled tasks hold partial output
// by design). Returns the number verified.
func (sc *Scenario) VerifyCompleted(tol float64) (int, error) {
	n := 0
	for i, comp := range sc.compiled {
		if !sc.Src.completed[i] {
			continue
		}
		for p := range comp.Phases {
			if err := comp.Phases[p].CheckResults(sc.Sys.Hier.Mem, tol); err != nil {
				return n, fmt.Errorf("task %d (%s): %v", i, sc.names[i], err)
			}
		}
		n++
	}
	return n, nil
}

// Checkpoint captures the complete scenario — system, scheduler and
// injector — for a bit-identical fork.
type Checkpoint struct {
	Sys   arch.SystemState
	Sched osched.SchedState
	Src   SourceState
}

// Snapshot captures a deterministic full-scenario checkpoint.
func (sc *Scenario) Snapshot() *Checkpoint {
	return &Checkpoint{Sys: *sc.Sys.Checkpoint(), Sched: sc.Sched.Snapshot(), Src: sc.Src.Snapshot()}
}

// RestoreSnapshot reinstalls a checkpoint taken on this scenario. The system
// snapshot's content digest is verified first (see arch.RestoreCheckpoint);
// on an integrity failure nothing — system, scheduler or source — is touched.
func (sc *Scenario) RestoreSnapshot(cp *Checkpoint) error {
	if err := sc.Sys.RestoreCheckpoint(&cp.Sys); err != nil {
		return err
	}
	sc.Sched.Restore(cp.Sched)
	sc.Src.Restore(cp.Src)
	return nil
}
