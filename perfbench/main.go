// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator for a fixed host time and prints every
// metric by name and unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload pairs25 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced passes, records host-time spans around each
// call into a layer, and reports the per-layer metrics. Every operation is
// functionally verified, and every pass must reproduce the same results
// digest or the run fails. See README.md for the workloads and the metric
// map.
package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is the closed-loop client count: each sends its next operation
// only after the previous one completes. It matches the 2 vCPUs the
// benchmark was sized on.
const clients = 2

// A run sets its workload up at least minSetups times, and cheap set-ups
// again until setupBudget is spent or maxSetups were made; setup_s is the
// median.
const (
	minSetups   = 3
	maxSetups   = 200
	setupBudget = 500 * time.Millisecond
)

// heldOutSeed is never used while tuning a change; a claim must also hold on
// it.
const heldOutSeed = 7

// inputSeed derives the i-th input seed of a run from --seed with a
// splitmix64 step; it is never 0, which the simulator reads as "default".
func inputSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		return 1
	}
	return z
}

// metricDef names one reported metric. The lists must match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"sim_cycles_per_s", "sim-cycles/s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"arch.build_ms", "ms"},
	{"arch.builds", "count"},
	{"arch.verify_ms", "ms"},
	{"arch.checkpoint_ms", "ms"},
	{"arch.restore_ms", "ms"},
	{"arch.restores", "count"},
	{"sim.run_ns_per_cycle", "ns/cycle"},
	{"sim.cycles", "cycles"},
	{"sim.skip_ratio", "ratio"},
	{"coproc.vinsts", "count"},
	{"coproc.host_ns_per_vinst", "ns/vinst"},
	{"coproc.rename_stall_cycles", "cycles"},
	{"coproc.mshr_retries", "count"},
	{"coproc.migrations", "count"},
	{"coproc.fabric_refusals", "count"},
	{"lanemgr.repartitions", "count"},
	{"lanemgr.reconfigures", "count"},
	{"lanemgr.drain_wait_cycles", "cycles"},
	{"lanemgr.reconfig_accept_ratio", "ratio"},
	{"mem.vec_hit_ratio", "ratio"},
	{"mem.l2_hit_ratio", "ratio"},
	{"mem.dram_bytes", "bytes"},
	{"mem.vec_mshr_rejects", "count"},
	{"cpu.pool_full_stall_cycles", "cycles"},
	{"cpu.monitor_insts", "count"},
	{"osched.switches", "count"},
	{"traffic.completed_ratio", "ratio"},
	{"traffic.truncated", "count"},
	{"serve.submit_ms", "ms"},
	{"serve.complete_ms", "ms"},
	{"serve.fetch_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.retries", "count"},
	{"obs.profile_overhead_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"model.fig10_gm_err", "ratio"},
}

// bench is one set-up workload.
type bench interface {
	// runPass drains the workload's fixed operation list once; tr is nil on
	// untraced passes.
	runPass(tr *tracer) pass
	// counters makes the separate, untimed counter pass and returns
	// per-layer metrics. runNs is the traced passes' host ns per simulated
	// cycle inside System.Run, the base of obs.profile_overhead_ratio.
	counters(runNs float64) (map[string]float64, error)
}

// workloads maps each workload name to its set-up function.
var workloads = map[string]func(seed uint64, tr *tracer) (bench, error){
	"pairs25":     setupPairs25,
	"topo64-fork": setupTopo64,
	"serve-mix":   setupServeMix,
}

// opResult is one verified operation: a run, a fork point or a job.
type opResult struct {
	lat     time.Duration
	cycles  uint64 // simulated cycles the operation advanced
	skipped uint64 // of which the engine skipped ahead
	vinsts  uint64
	core1   uint64   // Core1 cycles, for the Figure 10 error
	words   []uint64 // result words the digest covers
	err     error
}

func (o opResult) fail(err error) opResult {
	o.err = err
	return o
}

// pass is one drain of a workload's operation list, in queue order.
type pass struct {
	wall time.Duration
	ops  []opResult
}

func (p pass) err() error {
	var errs []error
	for i, o := range p.ops {
		if o.err != nil {
			errs = append(errs, fmt.Errorf("op %d: %w", i, o.err))
		}
	}
	return errors.Join(errs...)
}

func (p pass) failed() int {
	n := 0
	for _, o := range p.ops {
		if o.err != nil {
			n++
		}
	}
	return n
}

// digest hashes every operation's result words in queue order, so it does
// not depend on which worker finished first.
func (p pass) digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, o := range p.ops {
		binary.LittleEndian.PutUint64(b[:], uint64(len(o.words)))
		h.Write(b[:])
		for _, w := range o.words {
			binary.LittleEndian.PutUint64(b[:], w)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func (p pass) sum(f func(opResult) uint64) uint64 {
	var n uint64
	for _, o := range p.ops {
		n += f(o)
	}
	return n
}

// closedLoop drains n operations from a fixed queue with the given number
// of workers. Queue position, not goroutine start order, decides which
// operation a free worker takes next.
func closedLoop(n, workers int, run func(i int) opResult) pass {
	ops := make([]opResult, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				t := time.Now()
				r := run(i)
				r.lat = time.Since(t)
				ops[i] = r
			}
		}()
	}
	wg.Wait()
	return pass{wall: time.Since(start), ops: ops}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: pairs25, topo64-fork or serve-mix")
	seed := fs.Uint64("seed", 1, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Int("seconds", 30, "host seconds to measure for")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload pairs25|topo64-fork|serve-mix, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	res, err := measure(stdout, *name, setup, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: outputs failed verification")
		return 1
	}
	return 0
}

// measure sets the workload up, runs passes for the given duration and
// folds them into the reported metrics.
func measure(w io.Writer, name string, setup func(uint64, *tracer) (bench, error), seed uint64, budget time.Duration, traced bool) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var b bench
	var setups []float64
	for began := time.Now(); len(setups) < minSetups || (len(setups) < maxSetups && time.Since(began) < setupBudget); {
		t := time.Now()
		var err error
		if b, err = setup(seed, tr); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
		// Collect the garbage of the set-up, and of the previous one, outside
		// the timer, so it does not inflate the peak RSS or the first pass.
		runtime.GC()
	}

	setupSpans := tr.len()

	// Timed phase. Untraced runs repeat the pass until the budget is spent,
	// at least twice; traced runs alternate untraced and traced passes and
	// end on a traced one.
	var plain, spanned []pass
	start := time.Now()
	for {
		runtime.GC() // every pass starts from the same heap
		if traced && len(plain) > len(spanned) {
			spanned = append(spanned, b.runPass(tr))
		} else {
			plain = append(plain, b.runPass(nil))
		}
		if time.Since(start) < budget {
			continue
		}
		if traced && len(spanned) == len(plain) {
			break
		}
		if !traced && len(plain) >= 2 {
			break
		}
	}

	all := append(append([]pass(nil), plain...), spanned...)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	want := all[0].digest()
	for i, p := range all {
		res.Attempted += len(p.ops)
		res.Failed += p.failed()
		if err := p.err(); err != nil {
			fmt.Fprintf(w, "pass %d: %v\n", i, err)
			res.Correct = false
		}
		if d := p.digest(); d != want {
			fmt.Fprintf(w, "pass %d: results digest %016x differs from pass 0's %016x\n", i, d, want)
			res.Correct = false
		}
	}
	fmt.Fprintf(w, "workload %s  seed %d  passes %d untraced + %d traced  results digest %016x\n",
		name, seed, len(plain), len(spanned), want)
	fmt.Fprintf(w, "%-30s %16s  %s\n", "metric", "value", "unit")
	report := func(name, unit string, v float64, note string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Fprintf(w, "%-30s %16.6g  %-12s %s\n", name, v, unit, note)
	}
	fmt.Fprintf(w, "%-30s %16.6g  %-12s attempted %d, failed %d\n", "fail_ratio", failRatio(res.Attempted, res.Failed), "ratio", res.Attempted, res.Failed)
	if p, ok := b.(*pairs25); ok {
		fmt.Fprintf(w, "%-30s %16.6g  %-12s against the paper's gem5 Figure 10\n", "fig10_gm_err", p.fig10Err(all[0]), "ratio")
	}
	if !traced {
		endToEndMetrics(w, report, plain, setups)
		return res, nil
	}
	if err := perLayerMetrics(w, report, name, b, tr, setupSpans, plain, spanned); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEndMetrics reports what a user of the system sees, from untraced
// passes.
func endToEndMetrics(w io.Writer, report func(name, unit string, v float64, note string), passes []pass, setups []float64) {
	var walls, lats []float64
	var wall time.Duration
	var cycles uint64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		wall += p.wall
		cycles += p.sum(func(o opResult) uint64 { return o.cycles })
		for _, o := range p.ops {
			lats = append(lats, ms(o.lat))
		}
	}
	q1, q3 := quartiles(walls)
	report("wall_s", "s", median(walls), fmt.Sprintf("median of %d passes, quartiles %.4g..%.4g", len(walls), q1, q3))
	report("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	report("sim_cycles_per_s", "sim-cycles/s", float64(cycles)/wall.Seconds(), "")
	p50, _ := percentile(lats, 0.50)
	report("op_p50_ms", "ms", p50, fmt.Sprintf("n=%d, closed loop", len(lats)))
	report("peak_rss_mb", "MiB", peakRSSMiB(), "getrusage max RSS")
	// The tail is the highest of these percentiles with ten samples beyond
	// it. It is printed, not gated: a topo64-fork run has too few operations
	// for a p90.
	for _, q := range []float64{0.90, 0.75} {
		if v, ok := percentile(lats, q); ok {
			fmt.Fprintf(w, "%-30s %16.6g  %-12s n=%d\n", fmt.Sprintf("op_p%.0f_ms", 100*q), v, "ms", len(lats))
			break
		}
	}
}

// perLayerMetrics reports the traced passes' span statistics and the
// counter pass, prints the self-time table and writes the Perfetto trace.
func perLayerMetrics(w io.Writer, report func(name, unit string, v float64, note string), name string, b bench, tr *tracer, setupSpans int, plain, spanned []pass) error {
	ls := tr.layers()
	var cycles, vins, skipped uint64
	for _, p := range spanned {
		cycles += p.sum(func(o opResult) uint64 { return o.cycles })
		vins += p.sum(func(o opResult) uint64 { return o.vinsts })
		skipped += p.sum(func(o opResult) uint64 { return o.skipped })
	}
	run := layerByName(ls, "sim.run")
	vals := map[string]float64{
		"arch.build_ms":            layerByName(ls, "arch.build").p50ms(),
		"arch.verify_ms":           layerByName(ls, "arch.verify").p50ms(),
		"arch.checkpoint_ms":       layerByName(ls, "arch.checkpoint").p50ms(),
		"arch.restore_ms":          layerByName(ls, "arch.restore").p50ms(),
		"sim.cycles":               float64(cycles) / float64(len(spanned)),
		"serve.submit_ms":          layerByName(ls, "serve.submit").p50ms(),
		"serve.complete_ms":        layerByName(ls, "serve.complete").p50ms(),
		"serve.fetch_ms":           layerByName(ls, "serve.fetch").p50ms(),
		"trace.overhead_ratio":     medianWall(spanned) / medianWall(plain),
		"arch.builds":              float64(tr.count("arch.build", setupSpans)) / float64(len(spanned)),
		"arch.restores":            float64(tr.count("arch.restore", setupSpans)) / float64(len(spanned)),
		"sim.run_ns_per_cycle":     ratio(float64(run.total), float64(cycles)),
		"coproc.host_ns_per_vinst": ratio(float64(run.total), float64(vins)),
		"sim.skip_ratio":           ratio(float64(skipped), float64(cycles)),
	}
	counters, err := b.counters(vals["sim.run_ns_per_cycle"])
	if err != nil {
		return err
	}
	for k, v := range counters {
		vals[k] = v
	}
	if p, ok := b.(*pairs25); ok {
		vals["model.fig10_gm_err"] = p.fig10Err(spanned[0])
	}
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.name] = true
		report(m.name, m.unit, vals[m.name], "")
	}
	for k := range vals {
		if !known[k] {
			return fmt.Errorf("metric %q is not in the per-layer list", k)
		}
	}
	fmt.Fprintln(w, "host self time per layer (traced passes and set-ups):")
	writeSelfTable(w, ls)
	path := fmt.Sprintf(".bench_build/trace-%s.json", name)
	if err := tr.writePerfetto(path); err != nil {
		return err
	}
	fmt.Fprintf(w, "perfetto trace: %s (validated)\n", path)
	return nil
}

func medianWall(ps []pass) float64 {
	var xs []float64
	for _, p := range ps {
		xs = append(xs, p.wall.Seconds())
	}
	return median(xs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB is the process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
