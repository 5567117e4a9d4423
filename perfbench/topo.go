package main

import (
	"fmt"

	"occamy"
	"occamy/internal/arch"
	"occamy/internal/experiments"
	"occamy/internal/fault"
	"occamy/internal/workload"
)

// The topo64-fork machine: the -exp scale 64-core group on 4 co-processor
// clusters behind the routed fabric, with its kernels cut to topoRepeats
// repeats (a whole run is then about 29k cycles). Every point forks at
// topoForkAt, while all 64 cores still run.
const (
	topoCores    = 64
	topoClusters = 4
	topoRepeats  = 1
	topoForkAt   = 8000
)

// topoPoints are the fault schedules forked from the checkpoint, as
// fault-spec templates with the fork cycle substituted for %[1]d.
var topoPoints = []string{
	"",
	"exebu:2@%[1]d",
	"xmit:core3@%[1]d+2000",
	"exebu:cl1:4@%[1]d+1500",
	"xmit:core40:16@%[1]d+1500",
	"exebu:cl2:1@%[1]d; xmit:core21@%[1]d+1000",
	"",
	"exebu:cl3:2@%[1]d",
}

// topo64 holds one warmed-up 64-core system and its checkpoint.
type topo64 struct {
	sys    *arch.System
	snap   *arch.SystemState
	base   *arch.Result      // the system's result view at the fork point
	counts map[string]uint64 // its counters at the fork point
	// skipped is the engine's skipped-cycle count at the fork point.
	skipped uint64
	faults  [][]fault.Fault
}

func setupTopo64(seed uint64, tr *tracer) (bench, error) {
	op := tr.newOp()
	root := tr.begin("setup", op, 0)
	defer tr.end(root)

	g := experiments.ScaleGroup(workload.NewRegistry(), topoCores)
	for _, w := range g.W {
		for _, k := range w.Phases {
			k.Repeats = topoRepeats
		}
	}
	cfg := occamy.DefaultConfig(occamy.Elastic)
	cfg.Seed = inputSeed(seed, 0)
	cfg.Topology = &occamy.Topology{
		Clusters:     topoClusters,
		HopLatency:   experiments.ScaleHopLatency,
		HopBandwidth: experiments.ScaleHopBandwidth,
	}
	t := &topo64{}
	err := tr.call("occamy.validate", op, root, cfg.Validate)
	if err == nil {
		err = tr.call("arch.build", op, root, func() (err error) {
			t.sys, err = arch.Build(cfg.Arch, g, arch.Options{
				ExeBUs:       cfg.LanesPerCore / 4 * topoCores,
				Seed:         cfg.Seed,
				StallCycles:  cfg.StallCycles,
				Topology:     cfg.Topology,
				WireInjector: true,
			})
			return err
		})
	}
	if err == nil {
		err = tr.call("sim.warmup", op, root, func() error { return t.sys.RunTo(topoForkAt) })
	}
	if err != nil {
		return nil, err
	}
	_ = tr.call("arch.checkpoint", op, root, func() error {
		t.snap = t.sys.Checkpoint()
		return nil
	})
	if t.base, err = t.sys.FinishRun(nil); err != nil {
		return nil, err
	}
	t.counts = counterMap(t.sys, t.base)
	t.skipped = t.sys.Engine.SkippedCycles()
	for _, p := range topoPoints {
		spec := p
		if spec != "" {
			spec = fmt.Sprintf(p, topoForkAt)
		}
		fs, err := fault.ParseSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("fork point %q: %w", spec, err)
		}
		t.faults = append(t.faults, fs)
	}
	return t, nil
}

// fork runs one fork point: verified restore, fault schedule, run, verify.
func (t *topo64) fork(tr *tracer, i int, counters *simCounters) opResult {
	op := tr.newOp()
	root := tr.begin("op", op, 0)
	defer tr.end(root)

	var out opResult
	if err := tr.call("arch.restore", op, root, func() error { return t.sys.RestoreCheckpoint(t.snap) }); err != nil {
		return out.fail(err)
	}
	t.sys.SetFaultSchedule(t.faults[i])
	var res *arch.Result
	if err := tr.call("sim.run", op, root, func() (err error) {
		res, err = t.sys.Run(occamy.DefaultConfig(occamy.Elastic).MaxCycles)
		return err
	}); err != nil {
		return out.fail(fmt.Errorf("fork point %d: %w", i, err))
	}
	if err := tr.call("arch.verify", op, root, func() error { return t.sys.CheckResults(2e-3) }); err != nil {
		return out.fail(fmt.Errorf("fork point %d: %w", i, err))
	}
	out.cycles = t.sys.Engine.Cycle() - t.snap.Cycle()
	out.skipped = t.sys.Engine.SkippedCycles() - t.skipped
	out.vinsts = vinsts(res) - vinsts(t.base)
	out.words = resultWords(res)
	if counters != nil {
		counters.add(t.sys, res, t.counts)
	}
	return out
}

func (t *topo64) runPass(tr *tracer) pass {
	return closedLoop(len(t.faults), 1, func(i int) opResult { return t.fork(tr, i, nil) })
}

func (t *topo64) counters(float64) (map[string]float64, error) {
	var c simCounters
	ps := closedLoop(len(t.faults), 1, func(i int) opResult { return t.fork(nil, i, &c) })
	if err := ps.err(); err != nil {
		return nil, fmt.Errorf("counter pass: %w", err)
	}
	return c.metrics(), nil
}
