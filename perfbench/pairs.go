package main

import (
	"fmt"
	"math"
	"sort"

	"occamy"
	"occamy/internal/arch"
	"occamy/internal/obs"
	"occamy/internal/workload"
)

// paperCore1GM is the paper's Figure 10 geomean Core1 speedup over Private
// (Zhang et al., ASPLOS'23), measured there on a gem5 model, not hardware.
var paperCore1GM = map[arch.Kind]float64{arch.FTS: 1.20, arch.VLS: 1.11, arch.Occamy: 1.39}

// pairJob is one co-schedule on one architecture.
type pairJob struct {
	kind    arch.Kind
	sched   workload.CoSchedule
	machine *occamy.MachineTuning
	pair    int // index into the Figure 10 pair list
}

// work is the job's size proxy for the longest-first queue: the largest
// per-core element count.
func (j pairJob) work() int {
	most := 0
	for _, w := range j.sched.W {
		n := 0
		for _, k := range w.Phases {
			n += k.Elems * k.Repeats
		}
		most = max(most, n)
	}
	return most
}

// longestFirst orders jobs by descending work, ties by their original index,
// so the queue two workers drain is the same on every run.
func longestFirst(jobs []pairJob) {
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].work() > jobs[b].work() })
}

// runPairOp executes the occamy.Run pipeline for one job — validate, build,
// simulate, verify — with a span around each call into a layer. profile
// turns on cycle attribution for the counter pass; counters, when non-nil,
// accumulates the run's counter registry and result counters.
func runPairOp(tr *tracer, j pairJob, seed uint64, profile bool, counters *simCounters) opResult {
	op := tr.newOp()
	root := tr.begin("op", op, 0)
	defer tr.end(root)

	cfg := occamy.DefaultConfig(j.kind)
	cfg.Seed = seed
	cfg.Machine = j.machine
	var out opResult
	if err := tr.call("occamy.validate", op, root, cfg.Validate); err != nil {
		return out.fail(err)
	}
	var sys *arch.System
	err := tr.call("arch.build", op, root, func() (err error) {
		sys, err = arch.Build(cfg.Arch, j.sched, arch.Options{
			ExeBUs:      cfg.LanesPerCore / 4 * j.sched.Cores(),
			Seed:        cfg.Seed,
			Machine:     cfg.Machine,
			StallCycles: cfg.StallCycles,
			Obs:         obs.Options{Attribution: profile},
		})
		return err
	})
	if err != nil {
		return out.fail(err)
	}
	var res *arch.Result
	if err := tr.call("sim.run", op, root, func() (err error) {
		res, err = sys.Run(cfg.MaxCycles)
		return err
	}); err != nil {
		return out.fail(err)
	}
	if err := tr.call("arch.verify", op, root, func() error { return sys.CheckResults(2e-3) }); err != nil {
		return out.fail(fmt.Errorf("%s on %s: %w", j.sched.Name, j.kind, err))
	}
	out.cycles = sys.Engine.Cycle()
	out.skipped = sys.Engine.SkippedCycles()
	out.vinsts = vinsts(res)
	out.words = resultWords(res)
	out.core1 = res.Cores[1].Cycles
	if counters != nil {
		counters.add(sys, res, nil)
	}
	return out
}

// pairs25 is the paper's main campaign: the 25 Figure 10 pairs on all four
// architectures at Table 4 scale 1.0, verified.
type pairs25 struct {
	seed uint64
	jobs []pairJob // longest first
}

func setupPairs25(seed uint64, tr *tracer) (bench, error) {
	reg := workload.NewRegistry()
	var jobs []pairJob
	for i, s := range workload.Figure10Pairs(reg) {
		for _, k := range arch.Kinds {
			jobs = append(jobs, pairJob{kind: k, sched: s, pair: i})
		}
	}
	longestFirst(jobs)
	return &pairs25{seed: inputSeed(seed, 0), jobs: jobs}, nil
}

func (p *pairs25) runPass(tr *tracer) pass {
	return closedLoop(len(p.jobs), clients, func(i int) opResult {
		return runPairOp(tr, p.jobs[i], p.seed, false, nil)
	})
}

// counters runs every job once more with cycle attribution on. Its span
// timings feed only obs.profile_overhead_ratio.
func (p *pairs25) counters(runNs float64) (map[string]float64, error) {
	var c simCounters
	prof := newTracer()
	ps := closedLoop(len(p.jobs), clients, func(i int) opResult {
		return runPairOp(prof, p.jobs[i], p.seed, true, &c)
	})
	if err := ps.err(); err != nil {
		return nil, fmt.Errorf("profiled counter pass: %w", err)
	}
	m := c.metrics()
	profNs := float64(layerByName(prof.layers(), "sim.run").total) / float64(ps.sum(func(o opResult) uint64 { return o.cycles }))
	m["obs.profile_overhead_ratio"] = ratio(profNs, runNs)
	return m, nil
}

// fig10Err is the mean relative error of the pass's Core1 geomean speedups
// over Private for FTS, VLS and Occamy against the paper's values.
func (p *pairs25) fig10Err(ps pass) float64 {
	private := map[int]uint64{}
	for i, j := range p.jobs {
		if j.kind == arch.Private {
			private[j.pair] = ps.ops[i].core1
		}
	}
	logSum := map[arch.Kind]float64{}
	n := map[arch.Kind]int{}
	for i, j := range p.jobs {
		if j.kind == arch.Private || ps.ops[i].core1 == 0 {
			continue
		}
		logSum[j.kind] += math.Log(float64(private[j.pair]) / float64(ps.ops[i].core1))
		n[j.kind]++
	}
	var err float64
	for _, k := range []arch.Kind{arch.FTS, arch.VLS, arch.Occamy} {
		if n[k] == 0 {
			return 0 // every run of k failed; the pass is reported incorrect
		}
		paper := paperCore1GM[k]
		gm := math.Exp(logSum[k] / float64(n[k]))
		err += math.Abs(gm-paper) / paper
	}
	return err / float64(len(paperCore1GM))
}

// vinsts is the co-processor's issued vector instructions, compute and memory.
func vinsts(res *arch.Result) uint64 {
	var n uint64
	for _, c := range res.Cores {
		n += c.ComputeIssued + c.MemIssued
	}
	return n
}

// resultWords are the result fields the workload digest covers: cycles,
// elements, and per-core cycles and issue counts.
func resultWords(res *arch.Result) []uint64 {
	w := []uint64{res.Cycles, res.Elems}
	for _, c := range res.Cores {
		w = append(w, c.Cycles, c.ComputeIssued, c.MemIssued)
	}
	return w
}
