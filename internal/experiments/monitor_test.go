package experiments

// Monitor suite: the live-monitoring contract. The grid scheduler feeds a
// Monitor's atomic counters; /metrics (Prometheus text), /progress (JSON)
// and /debug/pprof serve them; and the final /metrics scrape must agree
// exactly with the monitor section of the metrics.json written at exit.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"twolevel/internal/span"
)

func TestNilMonitorIsNoop(t *testing.T) {
	var m *Monitor
	m.AddPlanned(3)
	m.CellDone(10)
	m.cellRestored()
	m.CellsFailed(1)
	m.CellRetried()
	m.BatchFallback()
	m.checkpointFlush()
	m.ObserveCells(time.Second, 2)
	m.AttachTracer(span.New())
	if tr := m.tracerOrNil(); tr != nil {
		t.Fatalf("nil monitor kept a tracer: %v", tr)
	}
	setWorkerState(m.workerHandle(0), "busy")
	if s := m.Snapshot(); s.CellsDone != 0 || s.ETASeconds != -1 {
		t.Fatalf("nil monitor snapshot = %+v", s)
	}
}

func TestMonitorSnapshotETA(t *testing.T) {
	m := NewMonitor()
	m.AddPlanned(4)
	if eta := m.Snapshot().ETASeconds; eta != -1 {
		t.Fatalf("ETA with nothing done = %v, want -1", eta)
	}
	m.CellDone(100)
	m.CellDone(100)
	s := m.Snapshot()
	if s.ETASeconds < 0 {
		t.Fatalf("ETA with half the grid done = %v, want >= 0", s.ETASeconds)
	}
	m.CellDone(100)
	m.CellsFailed(1)
	if eta := m.Snapshot().ETASeconds; eta != 0 {
		t.Fatalf("ETA with every cell settled = %v, want 0", eta)
	}
}

// TestMonitorETADrainedWorkers pins the measured-latency ETA fix: once
// every registered worker parks at "done" (drain), or when the monitor's
// scheduler never registers workers at all (brserve's per-tenant grids),
// the estimate must fall back to the completed-cell rate instead of
// dividing the measured mean by a phantom worker.
func TestMonitorETADrainedWorkers(t *testing.T) {
	m := NewMonitor()
	m.AddPlanned(4)
	m.CellDone(100)
	m.CellDone(100)
	m.ObserveCells(50*time.Millisecond, 2)
	setWorkerState(m.workerHandle(0), "done")
	setWorkerState(m.workerHandle(1), "done")
	s := m.Snapshot()
	if want := s.ElapsedSeconds / float64(s.CellsDone) * 2; s.ETASeconds != want {
		t.Fatalf("drained ETA = %v, want counter-ratio %v", s.ETASeconds, want)
	}
	// A worker waking back up restores the measured-latency estimate,
	// spread over exactly the live workers.
	setWorkerState(m.workerHandle(1), "cell 3/4")
	s = m.Snapshot()
	if want := s.CellSecondsMean * 2; s.ETASeconds != want {
		t.Fatalf("live ETA = %v, want mean-based %v", s.ETASeconds, want)
	}
}

func TestMonitorETAWithoutWorkerTable(t *testing.T) {
	m := NewMonitor()
	m.AddPlanned(3)
	m.CellDone(10)
	m.ObserveCells(time.Millisecond, 1)
	s := m.Snapshot()
	if len(s.Workers) != 0 {
		t.Fatalf("unexpected worker table: %+v", s.Workers)
	}
	if want := s.ElapsedSeconds / float64(s.CellsDone) * 2; s.ETASeconds != want {
		t.Fatalf("workerless ETA = %v, want counter-ratio %v", s.ETASeconds, want)
	}
}

// TestMonitorPrometheusRendering pins the exposition bytes the registry
// rendering must preserve: counters as %d, gauges as %g, and the
// worker-state family header present even before any worker registers.
func TestMonitorPrometheusRendering(t *testing.T) {
	s := MonitorSnapshot{CellsPlanned: 3, CellsDone: 2, EventsPerSec: 1.5}
	var sb strings.Builder
	s.WritePrometheus(&sb)
	got := sb.String()
	for _, want := range []string{
		"# HELP twolevel_grid_cells_planned_total Grid cells scheduled.\n# TYPE twolevel_grid_cells_planned_total counter\ntwolevel_grid_cells_planned_total 3\n",
		"twolevel_grid_cells_done_total 2\n",
		"twolevel_sim_events_per_second 1.5\n",
		"# HELP twolevel_worker_state Per-worker activity (value always 1; state in the label).\n# TYPE twolevel_worker_state gauge\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "twolevel_worker_state{") {
		t.Errorf("workerless exposition has worker rows:\n%s", got)
	}
	s.Workers = []string{"idle", "cell 1/3"}
	sb.Reset()
	s.WritePrometheus(&sb)
	got = sb.String()
	if !strings.Contains(got, "twolevel_worker_state{worker=\"0\",state=\"idle\"} 1\ntwolevel_worker_state{worker=\"1\",state=\"cell 1/3\"} 1\n") {
		t.Errorf("worker rows wrong:\n%s", got)
	}
	if strings.Count(got, "# TYPE twolevel_worker_state gauge") != 1 {
		t.Errorf("worker-state header not emitted exactly once:\n%s", got)
	}
}

// scrapeCounters GETs /metrics and returns every non-comment series that
// carries no labels, name -> value.
func scrapeCounters(t *testing.T, url string) map[string]uint64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	out := map[string]uint64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			continue // gauges may be fractional; counters never are
		}
		out[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMonitorEndToEndMetricsAgree is the acceptance e2e: run a grid with
// the monitor attached, serve the monitoring endpoints, and require the
// final /metrics scrape to equal the monitor section of the metrics
// document written at exit — and the monitor's event total to equal the
// sum of per-run Events in that same document.
func TestMonitorEndToEndMetricsAgree(t *testing.T) {
	benchmarks := chaosBenchmarks("alpha", "beta")
	o := chaosOptions(benchmarks)
	o.Monitor = NewMonitor()
	o.Telemetry = &Telemetry{HotK: 4, ForensicsTopK: 4}
	tracer := span.New()
	o.Span = tracer.Root("suite")
	o.Monitor.AttachTracer(tracer)
	ResetCaches()
	t.Cleanup(ResetCaches)
	if _, err := runGrid(chaosRows, o); err != nil {
		t.Fatal(err)
	}
	o.Span.End()

	srv := httptest.NewServer(o.Monitor.Handler())
	defer srv.Close()

	scraped := scrapeCounters(t, srv.URL)
	doc := o.Telemetry.Document()
	snap := o.Monitor.Snapshot()
	doc.Monitor = &snap

	want := doc.Monitor.PrometheusCounters()
	for name, v := range want {
		got, ok := scraped[name]
		if !ok {
			t.Errorf("final /metrics missing %s", name)
			continue
		}
		if got != v {
			t.Errorf("%s: /metrics %d != metrics.json %d", name, got, v)
		}
	}

	// The grid ran 2 specs x 2 benchmarks with no checkpoint: all 4
	// cells measured, none restored or failed.
	if snap.CellsPlanned != 4 || snap.CellsDone != 4 || snap.CellsFailed != 0 || snap.CellsRestored != 0 {
		t.Fatalf("cells = %+v", snap)
	}
	// The monitor's event total must match what the per-run RunStats
	// observers counted — the two count the same thing by different
	// routes.
	var runEvents uint64
	for _, r := range doc.Runs {
		runEvents += r.Stats.Events
	}
	if snap.Events == 0 || snap.Events != runEvents {
		t.Fatalf("monitor events %d != summed run events %d", snap.Events, runEvents)
	}
	// Forensics rode along: one report per run, deterministic order.
	fdoc := o.Telemetry.ForensicsDocument()
	if len(fdoc.Runs) != 4 {
		t.Fatalf("forensics runs = %d, want 4", len(fdoc.Runs))
	}

	// /progress decodes to the same snapshot type with the same counters.
	resp, err := http.Get(srv.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var prog MonitorSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&prog); err != nil {
		t.Fatal(err)
	}
	if prog.CellsDone != snap.CellsDone || prog.Events != snap.Events {
		t.Fatalf("/progress %+v disagrees with snapshot %+v", prog, snap)
	}
	if prog.ETASeconds != 0 {
		t.Errorf("ETA after completion = %v, want 0", prog.ETASeconds)
	}
	// Measured per-cell latency rode along: the percentiles are
	// populated and ordered (p95 and max are bucket-upper/exact reads
	// of the same histogram, so only weak ordering holds between them).
	if prog.CellSecondsMean <= 0 || prog.CellSecondsP50 <= 0 || prog.CellSecondsMax <= 0 {
		t.Errorf("cell latency stats unpopulated: %+v", prog)
	}
	if prog.CellSecondsP95 < prog.CellSecondsP50 {
		t.Errorf("p95 %v < p50 %v", prog.CellSecondsP95, prog.CellSecondsP50)
	}

	// /spans serves the live summary tree of the attached tracer.
	sp, err := http.Get(srv.URL + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	spansBody, err := io.ReadAll(sp.Body)
	sp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"suite", "task", "replay"} {
		if !strings.Contains(string(spansBody), want) {
			t.Errorf("/spans missing %q:\n%s", want, spansBody)
		}
	}

	// pprof is mounted.
	pp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", pp.StatusCode)
	}
}

// TestMonitorCountsRestoredAndRetried drives the checkpoint-restore and
// retry paths and checks the counters the e2e happy path never touches.
func TestMonitorCountsRestoredAndRetried(t *testing.T) {
	benchmarks := chaosBenchmarks("gamma")
	dir := t.TempDir()
	run := func(m *Monitor) {
		cp, err := OpenCheckpoint(dir + "/cells.json")
		if err != nil {
			t.Fatal(err)
		}
		o := chaosOptions(benchmarks)
		o.Monitor = m
		o.Checkpoint = cp
		ResetCaches()
		if _, err := runGrid(chaosRows, o); err != nil {
			t.Fatal(err)
		}
		if err := cp.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(ResetCaches)
	m1 := NewMonitor()
	run(m1)
	if s := m1.Snapshot(); s.CellsDone != 2 || s.CellsRestored != 0 || s.CheckpointFlushes == 0 {
		t.Fatalf("cold run: %+v", s)
	}
	m2 := NewMonitor()
	run(m2)
	s := m2.Snapshot()
	if s.CellsDone != 0 || s.CellsRestored != 2 {
		t.Fatalf("resumed run: %+v", s)
	}
	if s.Events != 0 {
		t.Fatalf("restored cells contributed %d events, want 0", s.Events)
	}
}
