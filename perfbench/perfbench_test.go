package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"occamy/internal/arch"
	"occamy/internal/serve"
	"occamy/internal/workload"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if _, ok := percentile(seq(99), 0.90); ok {
		t.Error("p90 of 99 samples reported, but only 9 lie beyond it")
	}
	v, ok := percentile(seq(100), 0.90)
	if !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(seq(39), 0.75); ok {
		t.Error("p75 of 39 samples reported, but only 9 lie beyond it")
	}
	if v, ok := percentile(seq(40), 0.75); !ok || v != 30 {
		t.Errorf("p75 of 1..40 = %v, %v; want 30, true", v, ok)
	}
	if v, _ := percentile(seq(5), 0.5); v != 3 {
		t.Errorf("p50 of 1..5 = %v, want 3", v)
	}
}

// The expected values are Python's statistics.median and
// statistics.quantiles(xs, n=4).
func TestMedianAndQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{seq(10), 5.5, 2.75, 8.25},
		{seq(5), 3, 1.5, 4.5},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{0.9, 1.1}, 1.0, 0.85, 1.15},
	} {
		near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
		if m := median(c.xs); !near(m, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestFailRatioCountsRefusals(t *testing.T) {
	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer refuse.Close()
	m := &serveMix{jobs: []serve.JobSpec{{Tenant: "t", Kind: "pair", Arch: "occamy", Workloads: []string{"spec/WL20", "spec/WL17"}}}}
	refused := closedLoop(1, 1, func(i int) opResult { return m.job(nil, nil, refuse.Client(), refuse.URL, i) })
	if refused.failed() != 1 || m.refused.Load() != 1 {
		t.Fatalf("a 429 counted %d failed, %d refused; want 1 and 1", refused.failed(), m.refused.Load())
	}
	p := pass{ops: append([]opResult{{}}, refused.ops...)}
	if got := failRatio(len(p.ops), p.failed()); got != 0.5 {
		t.Errorf("fail ratio with one refusal in two ops = %v, want 0.5", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	// Children [10,40) and [30,60) overlap; [90,120) runs past the parent.
	got := selfTime(ms(0, 100), []interval{ms(30, 60), ms(10, 40), ms(90, 120)})
	if want := 40 * time.Millisecond; got != want {
		t.Errorf("self time = %v, want %v", got, want)
	}
	if got := selfTime(ms(0, 100), nil); got != 100*time.Millisecond {
		t.Errorf("self time without children = %v, want 100ms", got)
	}
	if got := selfTime(ms(0, 100), []interval{ms(0, 100), ms(20, 30)}); got != 0 {
		t.Errorf("self time of a fully covered span = %v, want 0", got)
	}
}

// Two in-process repeats, one traced and one not, must produce the same
// results digest.
func TestDigestStableAcrossRepeats(t *testing.T) {
	s := workload.Figure10Pairs(workload.NewRegistry())[0].Scaled(0.1)
	p := &pairs25{seed: inputSeed(3, 0), jobs: []pairJob{
		{kind: arch.Private, sched: s}, {kind: arch.Occamy, sched: s, pair: 0},
	}}
	tr := newTracer()
	a, b := p.runPass(nil), p.runPass(tr)
	for _, ps := range []pass{a, b} {
		if err := ps.err(); err != nil {
			t.Fatal(err)
		}
	}
	if a.digest() != b.digest() {
		t.Errorf("digests differ: untraced %016x, traced %016x", a.digest(), b.digest())
	}
	if len(tr.layers()) == 0 {
		t.Error("the traced pass recorded no spans")
	}
	if p.runPass(nil).digest() != a.digest() {
		t.Error("a second untraced repeat changed the digest")
	}
}

// The metric lists the program reports must be the ones BENCHMARK.json
// declares, in the same order and units.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		have []metricDef
		want []def
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.have) != len(c.want) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json declares %d", c.what, len(c.have), len(c.want))
			continue
		}
		for i, m := range c.have {
			if m.name != c.want[i].Name || m.unit != c.want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", c.what, i, m.name, m.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}
