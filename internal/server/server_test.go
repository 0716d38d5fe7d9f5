package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"twolevel/internal/predictor"
	"twolevel/internal/prog"
	"twolevel/internal/sim"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

const (
	testBench    = "eqntott"
	testBranches = 2_000
)

var testSpecs = []string{
	"GAg(HR(1,,10-sr),1xPHT(2^10,A2))",
	"PAg(BHT(512,4,10-sr),1xPHT(2^10,A2))",
}

// postGrid submits one grid request and decodes the answer.
func postGrid(t *testing.T, client *http.Client, url, tenant string, req GridRequest) (*http.Response, *GridResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/grid", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("X-Tenant", tenant)
	res, err := client.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		io.Copy(io.Discard, res.Body)
		return res, nil
	}
	var gr GridResponse
	if err := json.NewDecoder(res.Body).Decode(&gr); err != nil {
		t.Fatalf("decoding grid response: %v", err)
	}
	return res, &gr
}

// directResult runs one spec over a fresh interpreter source exactly as
// the server should have: the reference for bit-identical assertions.
func directResult(t *testing.T, raw string, branches uint64) sim.Result {
	t.Helper()
	sp := spec.MustParse(raw)
	p, err := spec.Build(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := prog.ByName(testBench)
	if err != nil {
		t.Fatal(err)
	}
	src, err := b.NewSource(b.Testing)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(p, src, sim.Options{
		ContextSwitches: sp.ContextSwitch,
		MaxCondBranches: branches,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertCellMatches fails unless the served cell is bit-identical to
// the direct sim.Run reference.
func assertCellMatches(t *testing.T, c Cell, want sim.Result) {
	t.Helper()
	if c.Error != "" {
		t.Fatalf("cell %s failed: %s", c.Spec, c.Error)
	}
	if c.Predictions != want.Accuracy.Predictions {
		t.Errorf("cell %s: predictions = %d, want %d", c.Spec, c.Predictions, want.Accuracy.Predictions)
	}
	if got, wantMiss := c.Mispredictions, want.Accuracy.Predictions-want.Accuracy.Correct; got != wantMiss {
		t.Errorf("cell %s: mispredictions = %d, want %d", c.Spec, got, wantMiss)
	}
	if c.Accuracy != want.Accuracy.Rate() {
		t.Errorf("cell %s: accuracy = %v, want %v", c.Spec, c.Accuracy, want.Accuracy.Rate())
	}
}

func TestGridMatchesDirectRun(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, gr := postGrid(t, ts.Client(), ts.URL, "alice", GridRequest{
		Bench:    testBench,
		Specs:    testSpecs,
		Branches: testBranches,
	})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if gr.Completed != len(testSpecs) || gr.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", gr.Completed, gr.Failed, len(testSpecs))
	}
	if gr.Checksum == "" {
		t.Error("response carries no snapshot checksum")
	}
	for i, c := range gr.Cells {
		if c.Spec != spec.MustParse(testSpecs[i]).String() {
			t.Errorf("cell %d spec = %q, want %q", i, c.Spec, testSpecs[i])
		}
		assertCellMatches(t, c, directResult(t, testSpecs[i], testBranches))
		if c.CostBits <= 0 {
			t.Errorf("cell %s: cost bits not populated", c.Spec)
		}
		if c.Events == 0 {
			t.Errorf("cell %s: events not populated", c.Spec)
		}
	}

	// A repeat request replays the shared capture: identical answer.
	_, gr2 := postGrid(t, ts.Client(), ts.URL, "bob", GridRequest{
		Bench:    testBench,
		Specs:    testSpecs,
		Branches: testBranches,
	})
	if gr2.Checksum != gr.Checksum {
		t.Errorf("checksum changed across requests: %s then %s", gr.Checksum, gr2.Checksum)
	}
	for i := range gr.Cells {
		if gr.Cells[i] != gr2.Cells[i] {
			t.Errorf("cell %d not identical across requests:\n%+v\n%+v", i, gr.Cells[i], gr2.Cells[i])
		}
	}
	if st := s.CacheStats(); st.Hits == 0 {
		t.Errorf("second request did not hit the shared capture cache: %+v", st)
	}
}

func TestGridStreaming(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(GridRequest{
		Bench: testBench, Specs: testSpecs, Branches: testBranches, Stream: true,
	})
	res, err := ts.Client().Post(ts.URL+"/v1/grid", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var cells []Cell
	var summary *GridResponse
	dec := json.NewDecoder(res.Body)
	for {
		var line struct {
			Cell    *Cell         `json:"cell"`
			Summary *GridResponse `json:"summary"`
		}
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if line.Cell != nil {
			cells = append(cells, *line.Cell)
		}
		if line.Summary != nil {
			summary = line.Summary
		}
	}
	if len(cells) != len(testSpecs) {
		t.Fatalf("streamed %d cells, want %d", len(cells), len(testSpecs))
	}
	if summary == nil || summary.Completed != len(testSpecs) || summary.Failed != 0 {
		t.Fatalf("summary = %+v", summary)
	}
	for i, c := range cells {
		assertCellMatches(t, c, directResult(t, testSpecs[i], testBranches))
	}
}

func TestUploadAndGrid(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Materialise a small reference trace from the interpreter.
	b, err := prog.ByName(testBench)
	if err != nil {
		t.Fatal(err)
	}
	src, err := b.NewSource(b.Testing)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(&trace.LimitSource{Src: src, N: 500}, 0)
	if err != nil {
		t.Fatal(err)
	}

	var text bytes.Buffer
	if err := trace.WriteText(&text, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	w, err := trace.NewWriter(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAll(tr.Reader()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	upload := func(body []byte) uploadInfo {
		t.Helper()
		res, err := ts.Client().Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(res.Body)
			t.Fatalf("upload status = %d: %s", res.StatusCode, msg)
		}
		var info uploadInfo
		if err := json.NewDecoder(res.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		return info
	}
	textInfo := upload(text.Bytes())
	binInfo := upload(bin.Bytes())
	if textInfo.Events != tr.Len() || binInfo.Events != tr.Len() {
		t.Fatalf("upload events = %d / %d, want %d", textInfo.Events, binInfo.Events, tr.Len())
	}
	// Text and binary encode the same events: the replayed snapshots
	// must agree even though the upload keys differ.
	if textInfo.Checksum != binInfo.Checksum {
		t.Errorf("snapshot checksums differ across encodings: %s vs %s", textInfo.Checksum, binInfo.Checksum)
	}

	// Grid over the uploaded trace: bit-identical to direct replay.
	sp := spec.MustParse(testSpecs[0])
	p, err := spec.Build(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(p, tr.Reader(), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, gr := postGrid(t, ts.Client(), ts.URL, "carol", GridRequest{
		Trace: textInfo.Trace,
		Specs: testSpecs[:1],
	})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("grid status = %d", res.StatusCode)
	}
	assertCellMatches(t, gr.Cells[0], want)

	// Unknown keys 404.
	res, _ = postGrid(t, ts.Client(), ts.URL, "carol", GridRequest{
		Trace: "upload:deadbeef", Specs: testSpecs[:1],
	})
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d, want 404", res.StatusCode)
	}

	// A duplicate upload singleflights onto the same entry.
	before := s.CacheStats()
	dup := upload(text.Bytes())
	if dup.Trace != textInfo.Trace {
		t.Errorf("duplicate upload got a different key: %s vs %s", dup.Trace, textInfo.Trace)
	}
	after := s.CacheStats()
	if after.Entries != before.Entries {
		t.Errorf("duplicate upload grew the cache: %d -> %d entries", before.Entries, after.Entries)
	}
}

func TestRequestValidation(t *testing.T) {
	s := New(Config{MaxCells: 4, MaxBranches: 10_000})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		req    GridRequest
		status int
	}{
		{"no source", GridRequest{Specs: testSpecs}, 400},
		{"two sources", GridRequest{Bench: testBench, Trace: "x", Specs: testSpecs}, 400},
		{"no specs", GridRequest{Bench: testBench}, 400},
		{"bad spec", GridRequest{Bench: testBench, Specs: []string{"garbage("}}, 400},
		{"unknown bench", GridRequest{Bench: "nope", Specs: testSpecs}, 400},
		{"too many cells", GridRequest{Bench: testBench, Specs: []string{
			testSpecs[0], testSpecs[0], testSpecs[0], testSpecs[0], testSpecs[0]}}, 400},
		{"over budget", GridRequest{Bench: testBench, Specs: testSpecs, Branches: 20_000}, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, _ := postGrid(t, ts.Client(), ts.URL, "val", tc.req)
			if res.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", res.StatusCode, tc.status)
			}
		})
	}
	if snap := s.agg.Snapshot(); snap.Rejected != uint64(len(cases)) {
		t.Errorf("rejected = %d, want %d", snap.Rejected, len(cases))
	}
}

func TestUploadCaps(t *testing.T) {
	s := New(Config{MaxUploadBytes: 128})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, err := ts.Client().Post(ts.URL+"/v1/traces", "application/octet-stream",
		bytes.NewReader(make([]byte, 4096)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload status = %d, want 413", res.StatusCode)
	}

	res, err = ts.Client().Post(ts.URL+"/v1/traces", "application/octet-stream",
		strings.NewReader("not a trace"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload status = %d, want 400", res.StatusCode)
	}
}

// blockingPredictor wraps a real predictor but parks the first Predict
// until the gate opens — a deterministic way to hold an execution slot.
type blockingPredictor struct {
	predictor.Predictor
	gate <-chan struct{}
	once sync.Once
}

func (p *blockingPredictor) Predict(b trace.Branch) bool {
	p.once.Do(func() { <-p.gate })
	return p.Predictor.Predict(b)
}

// gatedConfig returns a config whose predictors block on gate.
func gatedConfig(cfg Config, gate <-chan struct{}) Config {
	cfg.buildPredictor = func(sp spec.Spec, td *spec.TrainingData) (predictor.Predictor, error) {
		p, err := spec.Build(sp, td)
		if err != nil {
			return nil, err
		}
		return &blockingPredictor{Predictor: p, gate: gate}, nil
	}
	return cfg
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestAdmissionShedsWithRetryAfter(t *testing.T) {
	gate := make(chan struct{})
	s := New(gatedConfig(Config{MaxConcurrent: 1, MaxQueue: 1}, gate))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := GridRequest{Bench: testBench, Specs: testSpecs[:1], Branches: testBranches}
	type answer struct {
		status int
		gr     *GridResponse
	}
	results := make(chan answer, 2)
	for i := 0; i < 2; i++ {
		go func() {
			res, gr := postGrid(t, ts.Client(), ts.URL, "sheddy", req)
			results <- answer{res.StatusCode, gr}
		}()
	}
	// One request executing (parked on the gate), one queued.
	waitFor(t, "slot occupied and queue full", func() bool {
		return s.admission.load() == 2
	})

	// The third arrival must be shed, with a backoff hint.
	body, _ := json.Marshal(req)
	res, err := ts.Client().Post(ts.URL+"/v1/grid", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Error("shed response carries no Retry-After")
	}

	// Opening the gate lets both held requests finish correctly.
	close(gate)
	want := directResult(t, testSpecs[0], testBranches)
	for i := 0; i < 2; i++ {
		a := <-results
		if a.status != http.StatusOK {
			t.Fatalf("held request status = %d", a.status)
		}
		assertCellMatches(t, a.gr.Cells[0], want)
	}
	if snap := s.agg.Snapshot(); snap.Shed != 1 {
		t.Errorf("shed counter = %d, want 1", snap.Shed)
	}
}

// fakeClock is a hand-advanced clock for quota tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestTenantQuota(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	cfg := Config{TenantRate: 1, TenantBurst: 1}
	cfg.clock = clk.Now
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := GridRequest{Bench: testBench, Specs: testSpecs[:1], Branches: testBranches}
	res, _ := postGrid(t, ts.Client(), ts.URL, "alice", req)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("first request status = %d", res.StatusCode)
	}
	// Bucket empty, clock frozen: the same tenant is denied...
	res, _ = postGrid(t, ts.Client(), ts.URL, "alice", req)
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota status = %d, want 429", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Error("quota refusal carries no Retry-After")
	}
	// ...while another tenant sails through.
	res, _ = postGrid(t, ts.Client(), ts.URL, "bob", req)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("other tenant status = %d", res.StatusCode)
	}
	// Tokens mature once time passes.
	clk.Advance(3 * time.Second)
	res, _ = postGrid(t, ts.Client(), ts.URL, "alice", req)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("post-refill status = %d", res.StatusCode)
	}
	snap := s.agg.Snapshot()
	if snap.QuotaDenied != 1 {
		t.Errorf("quota denied = %d, want 1", snap.QuotaDenied)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postGrid(t, ts.Client(), ts.URL, "metrics-tenant", GridRequest{
		Bench: testBench, Specs: testSpecs[:1], Branches: testBranches,
	})

	get := func(path string) (int, string) {
		t.Helper()
		res, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		body, _ := io.ReadAll(res.Body)
		return res.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("healthz = %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Errorf("readyz = %d", code)
	}
	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"twolevel_serve_requests_total 1",
		`twolevel_serve_requests_total{tenant="metrics-tenant"} 1`,
		"twolevel_serve_queue_depth",
		"twolevel_grid_cells_done_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("aggregate /metrics missing %q", want)
		}
	}
	code, body = get("/metrics?tenant=metrics-tenant")
	if code != 200 {
		t.Fatalf("tenant metrics = %d", code)
	}
	if !strings.Contains(body, `twolevel_serve_completed_total{tenant="metrics-tenant"} 1`) {
		t.Errorf("tenant /metrics missing completed counter:\n%s", body)
	}
	if code, _ := get("/metrics?tenant=ghost"); code != 404 {
		t.Errorf("unknown tenant metrics = %d, want 404", code)
	}
	if code, _ := get("/spans"); code != 200 {
		t.Errorf("spans = %d", code)
	}
	if code, _ := get("/progress"); code != 200 {
		t.Errorf("progress = %d", code)
	}
}

func TestDrainRefusal(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.draining.Store(true)

	res, _ := postGrid(t, ts.Client(), ts.URL, "late", GridRequest{
		Bench: testBench, Specs: testSpecs[:1],
	})
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining grid status = %d, want 503", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Error("draining refusal carries no Retry-After")
	}
	r, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", r.StatusCode)
	}
	if snap := s.agg.Snapshot(); snap.Drained != 1 {
		t.Errorf("drained counter = %d, want 1", snap.Drained)
	}
}

func TestGracefulDrainFinishesInFlight(t *testing.T) {
	gate := make(chan struct{})
	cfg := gatedConfig(Config{DrainTimeout: 10 * time.Second}, gate)
	s := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()
	url := "http://" + ln.Addr().String()
	client := &http.Client{}

	type answer struct {
		status int
		gr     *GridResponse
	}
	got := make(chan answer, 1)
	go func() {
		res, gr := postGrid(t, client, url, "inflight", GridRequest{
			Bench: testBench, Specs: testSpecs[:1], Branches: testBranches,
		})
		got <- answer{res.StatusCode, gr}
	}()
	waitFor(t, "request admitted", func() bool {
		return s.agg.Snapshot().Admitted == 1
	})

	// SIGTERM equivalent: cancel the serve context mid-request.
	cancel()
	waitFor(t, "drain to start", s.Draining)

	// The in-flight request must still complete, correctly.
	close(gate)
	a := <-got
	if a.status != http.StatusOK {
		t.Fatalf("in-flight request status = %d, want 200", a.status)
	}
	assertCellMatches(t, a.gr.Cells[0], directResult(t, testSpecs[0], testBranches))

	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}

	// The listener is gone: new connections fail.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Error("listener still accepting after drain")
	}
}

// slowPredictor makes progress but slowly, so a request deadline fires
// mid-run and the simulator's 4096-event ctx poll can observe it (a
// fully blocked predictor would never reach a poll).
type slowPredictor struct {
	predictor.Predictor
	n int
}

func (p *slowPredictor) Predict(b trace.Branch) bool {
	if p.n++; p.n%8 == 0 {
		time.Sleep(20 * time.Microsecond)
	}
	return p.Predictor.Predict(b)
}

func TestRequestDeadlinePropagates(t *testing.T) {
	const budget = 200_000
	slowSpec := spec.MustParse(testSpecs[1]).String()
	cfg := Config{MaxBranches: budget}
	cfg.buildPredictor = func(sp spec.Spec, td *spec.TrainingData) (predictor.Predictor, error) {
		p, err := spec.Build(sp, td)
		if err != nil {
			return nil, err
		}
		if sp.String() == slowSpec {
			return &slowPredictor{Predictor: p}, nil
		}
		return p, nil
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the capture with a fast spec so the deadline request spends
	// its whole budget in simulation, not capture.
	res, gr := postGrid(t, ts.Client(), ts.URL, "deadline", GridRequest{
		Bench: testBench, Specs: testSpecs[:1], Branches: budget,
	})
	if res.StatusCode != http.StatusOK || gr.Failed != 0 {
		t.Fatalf("warm request: status=%d resp=%+v", res.StatusCode, gr)
	}

	res, gr = postGrid(t, ts.Client(), ts.URL, "deadline", GridRequest{
		Bench:     testBench,
		Specs:     testSpecs[1:2],
		Branches:  budget,
		TimeoutMS: 100,
	})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if gr.Failed != 1 || gr.Completed != 0 {
		t.Fatalf("failed=%d completed=%d, want 1/0", gr.Failed, gr.Completed)
	}
	if !strings.Contains(gr.Cells[0].Error, "deadline") && !strings.Contains(gr.Cells[0].Error, "cancel") {
		t.Errorf("cell error = %q, want a deadline/cancel cause", gr.Cells[0].Error)
	}
}

func TestTokenBucket(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newTokenBucket(2, 2, clk.Now) // 2/s, burst 2

	for i := 0; i < 2; i++ {
		if ok, _ := b.take(); !ok {
			t.Fatalf("burst token %d denied", i)
		}
	}
	ok, wait := b.take()
	if ok {
		t.Fatal("empty bucket granted a token")
	}
	if wait <= 0 {
		t.Fatalf("wait = %v, want > 0", wait)
	}
	clk.Advance(500 * time.Millisecond) // one token at 2/s
	if ok, _ := b.take(); !ok {
		t.Fatal("matured token denied")
	}
	if ok, _ := b.take(); ok {
		t.Fatal("second token granted too early")
	}
	// A disabled bucket always grants.
	free := newTokenBucket(0, 0, clk.Now)
	for i := 0; i < 100; i++ {
		if ok, _ := free.take(); !ok {
			t.Fatal("disabled bucket denied")
		}
	}
}

func TestLoadGenAgainstServer(t *testing.T) {
	if testing.Short() {
		t.Skip("load run in -short")
	}
	s := New(Config{MaxConcurrent: 2, MaxQueue: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	gen := &LoadGen{
		URL:         ts.URL,
		Concurrency: 6,
		Duration:    600 * time.Millisecond,
		Bench:       testBench,
		Branches:    1_000,
		Specs:       testSpecs[:1],
		Client:      ts.Client(),
	}
	rep, err := gen.Run(context.Background())
	if err != nil {
		t.Fatalf("load run: %v (report %+v)", err, rep)
	}
	if rep.Completed == 0 {
		t.Fatalf("no completed requests: %+v", rep)
	}
	if rep.Errored > 0 {
		t.Errorf("load run saw %d transport/5xx errors: %+v", rep.Errored, rep)
	}
	// With 6 closed-loop clients against 2 slots + 1 queue entry, the
	// admission queue must have shed something.
	snap := s.agg.Snapshot()
	if snap.Shed == 0 {
		t.Logf("note: no shedding at this machine's speed (report %+v)", rep)
	}
	if snap.Shed != rep.Shed {
		t.Errorf("server shed %d but clients saw %d", snap.Shed, rep.Shed)
	}
}

func TestServeGaugesRender(t *testing.T) {
	s := New(Config{})
	var sb strings.Builder
	s.writeServerGauges(&sb)
	for _, want := range []string{"twolevel_serve_queue_depth", "twolevel_serve_draining", "twolevel_serve_trace_cache_entries"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("gauges missing %q", want)
		}
	}
}

func TestMonitorSnapshotJSON(t *testing.T) {
	var m Monitor
	m.request()
	m.admit()
	m.done(true, 10*time.Millisecond)
	data, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back MonitorSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Requests != 1 || back.Completed != 1 {
		t.Errorf("round trip lost counters: %+v", back)
	}
	if back.LatencySecondsP95 <= 0 {
		t.Errorf("latency quantiles not populated: %+v", back)
	}
	// Nil monitors are safe everywhere.
	var nilMon *Monitor
	nilMon.request()
	nilMon.done(false, 0)
	if s := nilMon.Snapshot(); s.Requests != 0 {
		t.Errorf("nil monitor snapshot = %+v", s)
	}
	_ = fmt.Sprintf("%+v", back)
}
