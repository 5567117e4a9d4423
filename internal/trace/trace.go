// Package trace exports a run's time-series data and event log in CSV and
// JSON, for plotting the paper's figures outside the simulator (Figure 2's
// per-1000-cycle lane curves, Figure 14(b)'s staircase, and the lane
// manager's decision history).
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"occamy/internal/arch"
	"occamy/internal/coproc"
)

// Run captures everything exported for one simulation.
type Run struct {
	Arch     string      `json:"arch"`
	Schedule string      `json:"schedule"`
	Cycles   uint64      `json:"cycles"`
	Util     float64     `json:"simd_utilization"`
	Cores    []Core      `json:"cores"`
	Events   []LaneEvent `json:"lane_events"`
	// BucketCycles is the timeline sampling granularity.
	BucketCycles uint64 `json:"bucket_cycles"`
	// LanesPerGranule is the machine's 32-bit lanes per granule (ExeBU),
	// carried so AllocatedLanes reconstructs lane counts for the machine
	// that produced the trace. Zero (older exports) means the Table 4
	// default of 4.
	LanesPerGranule int `json:"lanes_per_granule,omitempty"`
}

// Core is one core's exported series and summary.
type Core struct {
	Workload        string    `json:"workload"`
	Cycles          uint64    `json:"cycles"`
	IssueRate       float64   `json:"issue_rate"`
	RenameStallFrac float64   `json:"rename_stall_frac"`
	PhaseCycles     []uint64  `json:"phase_cycles"`
	PhaseIssueRates []float64 `json:"phase_issue_rates"`
	// BusyLanes is the average busy-lane count per timeline bucket.
	BusyLanes []float64 `json:"busy_lanes"`
}

// LaneEvent mirrors coproc.LaneEvent for export.
type LaneEvent struct {
	Cycle     uint64 `json:"cycle"`
	Core      int    `json:"core"`
	Kind      string `json:"kind"`
	VL        int    `json:"vl"`
	Decisions []int  `json:"decisions"`
}

// Capture assembles the export structure from a completed system.
func Capture(sys *arch.System, res *arch.Result) *Run {
	run := &Run{
		Arch:            res.Arch.String(),
		Schedule:        res.Sched,
		Cycles:          res.Cycles,
		Util:            res.Utilization,
		BucketCycles:    coproc.BusyBucketCycles,
		LanesPerGranule: sys.Cplx.LanesPerGranule(),
	}
	for c, cr := range res.Cores {
		run.Cores = append(run.Cores, Core{
			Workload:        cr.Workload,
			Cycles:          cr.Cycles,
			IssueRate:       cr.IssueRate,
			RenameStallFrac: cr.RenameStallFrac,
			PhaseCycles:     cr.PhaseCycles,
			PhaseIssueRates: cr.PhaseIssueRates,
			BusyLanes:       sys.Cplx.BusyLanes(c),
		})
	}
	for _, e := range sys.Cplx.LaneEvents() {
		run.Events = append(run.Events, LaneEvent{
			Cycle: e.Cycle, Core: e.Core, Kind: e.Kind, VL: e.VL, Decisions: e.Decisions,
		})
	}
	return run
}

// WriteJSON writes the full export as indented JSON.
func (r *Run) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTimelineCSV writes the per-bucket busy-lane series, one row per
// bucket: cycle, core0, core1, ...
func (r *Run) WriteTimelineCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"cycle"}
	maxLen := 0
	for c := range r.Cores {
		header = append(header, fmt.Sprintf("core%d_busy_lanes", c))
		if n := len(r.Cores[c].BusyLanes); n > maxLen {
			maxLen = n
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := 0; i < maxLen; i++ {
		row := []string{strconv.FormatUint(uint64(i)*r.BucketCycles, 10)}
		for c := range r.Cores {
			v := 0.0
			if i < len(r.Cores[c].BusyLanes) {
				v = r.Cores[c].BusyLanes[i]
			}
			row = append(row, strconv.FormatFloat(v, 'f', 2, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteEventsCSV writes the lane-management log: cycle, core, kind, vl,
// decisions (space-separated).
func (r *Run) WriteEventsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"cycle", "core", "kind", "vl", "decisions"}); err != nil {
		return err
	}
	for _, e := range r.Events {
		dec := ""
		for i, d := range e.Decisions {
			if i > 0 {
				dec += " "
			}
			dec += strconv.Itoa(d)
		}
		row := []string{
			strconv.FormatUint(e.Cycle, 10),
			strconv.Itoa(e.Core),
			e.Kind,
			strconv.Itoa(e.VL),
			dec,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// AllocatedLanes reconstructs the per-core allocated-lane staircase (the
// exact y-axis of Figure 2(e)) from the reconfiguration events: it returns,
// per core, a step series of (cycle, lanes).
func (r *Run) AllocatedLanes() [][]Step {
	lpg := r.LanesPerGranule
	if lpg == 0 {
		lpg = 4 // older exports predate the lanes_per_granule field
	}
	out := make([][]Step, len(r.Cores))
	for c := range out {
		out[c] = []Step{{Cycle: 0, Lanes: 0}}
	}
	for _, e := range r.Events {
		if e.Kind != "reconfigure" {
			continue
		}
		out[e.Core] = append(out[e.Core], Step{Cycle: e.Cycle, Lanes: lpg * e.VL})
	}
	return out
}

// Step is one step of an allocated-lanes staircase.
type Step struct {
	Cycle uint64 `json:"cycle"`
	Lanes int    `json:"lanes"`
}
