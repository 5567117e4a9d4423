package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"occamy/internal/htmlreport"
)

// ReadJSON decodes a Run previously written by WriteJSON (the .json file a
// -trace run leaves behind).
func ReadJSON(r io.Reader) (*Run, error) {
	var run Run
	dec := json.NewDecoder(r)
	if err := dec.Decode(&run); err != nil {
		return nil, fmt.Errorf("trace: decoding run: %w", err)
	}
	if run.BucketCycles == 0 {
		run.BucketCycles = 1000
	}
	if len(run.Cores) == 0 {
		return nil, fmt.Errorf("trace: run has no cores (not a trace export?)")
	}
	for i, e := range run.Events {
		if e.Core < 0 || e.Core >= len(run.Cores) {
			return nil, fmt.Errorf("trace: lane event %d names core %d, run has %d cores", i, e.Core, len(run.Cores))
		}
	}
	return &run, nil
}

// AddSections renders this run's charts and logs into an HTML page: the
// busy-lane timeline (the Figure 2(c)/(d) view), the allocated-lanes
// staircase reconstructed from reconfiguration events (Figure 2(e)), the
// per-phase issue-rate table (Figure 2(f)) and the lane-management event log.
func (r *Run) AddSections(page *htmlreport.Page) {
	title := fmt.Sprintf("%s on %s", r.Schedule, r.Arch)
	page.Section(title,
		htmlreport.P(fmt.Sprintf(
			"%d cycles, SIMD utilization %.1f%%; %d lane-management events.",
			r.Cycles, 100*r.Util, len(r.Events))),
		r.busyChart(),
		r.lanesChart(),
		htmlreport.PreTable(r.phaseTable()),
		htmlreport.PreTable(r.eventLog(200)),
	)
}

// busyChart renders the per-bucket busy-lane series.
func (r *Run) busyChart() string {
	series := make([]htmlreport.Series, len(r.Cores))
	for c, core := range r.Cores {
		series[c] = htmlreport.Series{
			Name:   fmt.Sprintf("core%d %s", c, core.Workload),
			Values: core.BusyLanes,
		}
	}
	return htmlreport.LineChart("Busy SIMD lanes over time", series,
		fmt.Sprintf("time (buckets of %d cycles)", r.BucketCycles), 1)
}

// lanesChart renders the allocated-lane staircase (empty string when the run
// has no reconfiguration events — the static architectures).
func (r *Run) lanesChart() string {
	stair := r.AllocatedLanes()
	var steps [][]htmlreport.Step
	names := make([]string, 0, len(stair))
	maxLanes, events := 0.0, 0
	for c, ss := range stair {
		conv := make([]htmlreport.Step, 0, len(ss))
		for _, s := range ss {
			conv = append(conv, htmlreport.Step{X: float64(s.Cycle), Y: float64(s.Lanes)})
			if float64(s.Lanes) > maxLanes {
				maxLanes = float64(s.Lanes)
			}
			if s.Cycle > 0 {
				events++
			}
		}
		steps = append(steps, conv)
		names = append(names, fmt.Sprintf("core%d %s", c, r.Cores[c].Workload))
	}
	if events == 0 {
		return htmlreport.P("No reconfiguration events: the vector lengths were fixed for the whole run.")
	}
	return htmlreport.StepChart("Allocated SIMD lanes", names, steps,
		float64(r.Cycles), maxLanes, "cycle")
}

// phaseTable renders each core's per-phase cycles and issue rates.
func (r *Run) phaseTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-24s %-7s %12s %10s\n", "core", "workload", "phase", "cycles", "issue/cy")
	for c, core := range r.Cores {
		for p := range core.PhaseCycles {
			rate := 0.0
			if p < len(core.PhaseIssueRates) {
				rate = core.PhaseIssueRates[p]
			}
			fmt.Fprintf(&b, "%-6d %-24s %-7d %12d %10.2f\n",
				c, core.Workload, p, core.PhaseCycles[p], rate)
		}
		fmt.Fprintf(&b, "%-6d %-24s %-7s %12d %10.2f\n",
			c, core.Workload, "all", core.Cycles, core.IssueRate)
	}
	return b.String()
}

// eventLog renders up to max lane-management events (head and tail when the
// log is longer).
func (r *Run) eventLog(max int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %-5s %-14s %4s  %s\n", "cycle", "core", "event", "vl", "decisions")
	write := func(e LaneEvent) {
		dec := ""
		if len(e.Decisions) > 0 {
			dec = fmt.Sprint(e.Decisions)
		}
		fmt.Fprintf(&b, "%10d %-5d %-14s %4d  %s\n", e.Cycle, e.Core, e.Kind, e.VL, dec)
	}
	if len(r.Events) <= max {
		for _, e := range r.Events {
			write(e)
		}
		return b.String()
	}
	head := max / 2
	tail := max - head
	for _, e := range r.Events[:head] {
		write(e)
	}
	fmt.Fprintf(&b, "... %d events elided ...\n", len(r.Events)-max)
	for _, e := range r.Events[len(r.Events)-tail:] {
		write(e)
	}
	return b.String()
}
