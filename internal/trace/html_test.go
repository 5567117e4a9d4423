package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"occamy/internal/htmlreport"
)

// TestReadJSONRoundTrip decodes what WriteJSON produced and compares the
// load-bearing fields.
func TestReadJSONRoundTrip(t *testing.T) {
	run := capture(t)
	var buf bytes.Buffer
	if err := run.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Arch != run.Arch || got.Schedule != run.Schedule || got.Cycles != run.Cycles {
		t.Fatalf("header mismatch: %+v vs %+v", got, run)
	}
	if len(got.Cores) != len(run.Cores) || len(got.Events) != len(run.Events) {
		t.Fatalf("lengths: %d/%d cores, %d/%d events",
			len(got.Cores), len(run.Cores), len(got.Events), len(run.Events))
	}
	if got.BucketCycles != run.BucketCycles {
		t.Fatalf("bucket cycles %d vs %d", got.BucketCycles, run.BucketCycles)
	}
}

// TestReadJSONRejectsGarbage pins the error paths.
func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"arch":"Occamy"}`)); err == nil {
		t.Fatal("core-less export accepted")
	}
	for _, core := range []string{"-1", "1"} {
		doc := `{"cores":[{"workload":"w"}],"lane_events":[{"core":` + core + `,"kind":"reconfigure","vl":2}]}`
		if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
			t.Fatalf("lane event on core %s of a 1-core run accepted", core)
		}
	}
}

// FuzzReadJSON hardens the occamy-trace input path: any document ReadJSON
// accepts must render into a page without panicking.
func FuzzReadJSON(f *testing.F) {
	f.Add([]byte(`{"arch":"Private","schedule":"x","cores":[{"workload":"w"}]}`))
	f.Add([]byte(`{"cycles":5000,"bucket_cycles":1000,"lanes_per_granule":4,` +
		`"cores":[{"workload":"a","phase_cycles":[10,20],"phase_issue_rates":[0.5],"busy_lanes":[1,2.5,0]},{"workload":"b"}],` +
		`"lane_events":[{"cycle":100,"core":1,"kind":"reconfigure","vl":3,"decisions":[1,3]}]}`))
	f.Add([]byte(`{"cores":[{}],"lane_events":[{"core":-1,"kind":"reconfigure"}]}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		page := htmlreport.New("fuzz")
		run.AddSections(page)
		if err := page.Write(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReadJSONDefaultsBucket pins the legacy-file default.
func TestReadJSONDefaultsBucket(t *testing.T) {
	got, err := ReadJSON(strings.NewReader(
		`{"arch":"Private","schedule":"x","cores":[{"workload":"w"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.BucketCycles != 1000 {
		t.Fatalf("bucket default = %d", got.BucketCycles)
	}
}

// TestAddSectionsElastic renders a reconfiguring run: the page must contain
// the busy-lane chart, the staircase and the event log.
func TestAddSectionsElastic(t *testing.T) {
	run := capture(t)
	page := htmlreport.New("test")
	run.AddSections(page)
	var buf bytes.Buffer
	if err := page.Write(&buf); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	for _, want := range []string{
		"Busy SIMD lanes over time",
		"Allocated SIMD lanes",
		"reconfigure",
		run.Cores[0].Workload,
		"<svg",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("page missing %q", want)
		}
	}
}

// TestAddSectionsStatic renders a run with no reconfigurations: the
// staircase is replaced by a note and nothing panics.
func TestAddSectionsStatic(t *testing.T) {
	run := capture(t)
	run.Events = nil // as a Private/VLS trace would be
	page := htmlreport.New("test")
	run.AddSections(page)
	var buf bytes.Buffer
	if err := page.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "No reconfiguration events") {
		t.Fatal("static run note missing")
	}
}

// TestEventLogElision pins the head/tail elision of long event logs.
func TestEventLogElision(t *testing.T) {
	run := capture(t)
	for len(run.Events) < 300 {
		run.Events = append(run.Events, run.Events...)
	}
	logText := run.eventLog(200)
	if !strings.Contains(logText, "events elided") {
		t.Fatal("long log not elided")
	}
	lines := strings.Count(logText, "\n")
	if lines > 203 {
		t.Fatalf("elided log still has %d lines", lines)
	}
	short := run.eventLog(len(run.Events) + 1)
	if strings.Contains(short, "elided") {
		t.Fatal("short log elided")
	}
}

// TestPhaseTableRows pins that every phase and a per-core total appear.
func TestPhaseTableRows(t *testing.T) {
	run := capture(t)
	table := run.phaseTable()
	wantRows := 1 // header
	for _, c := range run.Cores {
		wantRows += len(c.PhaseCycles) + 1
	}
	if got := strings.Count(table, "\n"); got != wantRows {
		t.Fatalf("table rows = %d, want %d\n%s", got, wantRows, table)
	}
	if !strings.Contains(table, "all") {
		t.Fatal("per-core total row missing")
	}
}
