package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"twolevel/internal/experiments"
	"twolevel/internal/prog"
	"twolevel/internal/server"
	"twolevel/internal/sim"
	"twolevel/internal/span"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

const (
	// serveClients is the number of closed-loop clients (and
	// connections): nproc on the 2-vCPU machine the benchmark targets.
	serveClients = 2
	// serveTimeout is every grid request's timeout_ms, far above the
	// normal p99. A request that hits it has failed.
	serveTimeout = 2 * time.Second
	// uploadEvents is the length of each uploaded trace (about 5,000
	// conditional branches, the CI upload's size).
	uploadEvents = 7_000
)

// Documented request shapes (README and the CI server smoke test).
var (
	specGAg8  = "GAg(HR(1,,8-sr),1xPHT(2^8,A2))"
	specGAg12 = "GAg(HR(1,,12-sr),1xPHT(2^12,A2))"
	specPAg   = "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))"
	// serveMix is each client's fixed request mix per round: 1,016
	// requests a round, so each round's p99 has ten samples beyond it.
	// Counts of grid requests are multiples of the nine benchmarks, so
	// every benchmark is asked for equally often; the seed shuffles the
	// order and the pairing with tenants. An upload sends a trace and
	// then a grid over its key.
	serveMix = []struct {
		kind string
		n    int
	}{
		{"grid-json-100k", 126},    // README: one spec at 100k
		{"grid-json-20k-2", 126},   // CI: two specs at 20k
		{"grid-stream-100k", 108},  // README: streamed, interval 4096, top 4
		{"grid-stream-20k-2", 108}, // CI: streamed, interval 2048, top 4
		{"upload", 20},             // CI: POST /v1/traces, then a grid over the key
	}
	serveTenants = []string{"alice", "bob", "ci"}
)

// serveReq is one planned request.
type serveReq struct {
	kind     string
	tenant   string
	bench    string
	specs    []string
	branches uint64
	stream   bool
	interval uint64
	top      int
	format   string // upload: "binary" or "text"
	upload   int    // upload and upload grid: index into the round's uploads
}

// serveResp is what a client observed for one request.
type serveResp struct {
	start, end time.Time
	status     int
	body       []byte
	err        error
}

// upload is one generated trace upload of a round.
type upload struct {
	body     []byte
	key      string
	snap     trace.Snapshot // the body decoded locally
	checksum string
}

// serve drives brserve in-process on loopback with closed-loop clients.
type serve struct {
	seed   uint64
	plan   [][]serveReq // per client, the same every round
	pool   *trace.Trace // events uploads are cut from
	nextUp int          // uploads generated so far (window offsets)

	srv         *server.Server
	serverEpoch time.Time // the server tracer's epoch, estimated
	base        string
	client      *http.Client
	stop        context.CancelFunc
	served      chan error

	uploads []upload      // this round's uploads
	bodies  [][][]byte    // this round's request bodies, per client
	resps   [][]serveResp // this round's responses, per client
	tr      *tracer       // the round's tracer, nil when untraced
	began   time.Time     // the round's start

	local *trace.CaptureCache    // local captures for references
	refs  map[string]server.Cell // reference cells by target|spec|branches
	sums  map[string]string      // reference checksums by target|branches
	stats trace.CaptureStats     // server cache stats at round start
	fails map[string]int         // failure causes over the run
}

func newServe(seed uint64) *serve {
	s := &serve{seed: seed, refs: map[string]server.Cell{}, sums: map[string]string{}, fails: map[string]int{}}
	rng := splitmix(seed ^ 0x5e5e)
	perm := func(n int) []int { // a seeded Fisher-Yates permutation of 0..n-1
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		for i := n - 1; i > 0; i-- {
			rng = splitmix(rng)
			j := int(rng % uint64(i+1))
			p[i], p[j] = p[j], p[i]
		}
		return p
	}
	uploads := 0
	for c := 0; c < serveClients; c++ {
		var slots []serveReq
		for _, m := range serveMix {
			tenants := perm(m.n)
			for j := 0; j < m.n; j++ {
				r := serveReq{kind: m.kind, tenant: serveTenants[tenants[j]%len(serveTenants)],
					bench: prog.All[j%len(prog.All)].Name}
				switch m.kind {
				case "grid-json-100k":
					r.specs, r.branches = []string{specGAg12}, 100_000
				case "grid-json-20k-2":
					r.specs, r.branches = []string{specGAg8, specGAg12}, 20_000
				case "grid-stream-100k":
					r.specs, r.branches, r.stream, r.interval, r.top = []string{specGAg12}, 100_000, true, 4096, 4
				case "grid-stream-20k-2":
					r.specs, r.branches, r.stream, r.interval, r.top = []string{specGAg8, specGAg12}, 20_000, true, 2048, 4
				case "upload":
					r.bench = ""
					r.format = [2]string{"binary", "text"}[j%2]
					r.specs = []string{[2]string{specPAg, specGAg8}[j/2%2]}
				}
				slots = append(slots, r)
			}
		}
		var reqs []serveReq
		for _, k := range perm(len(slots)) {
			r := slots[k]
			if r.kind == "upload" {
				r.upload = uploads
				uploads++
				reqs = append(reqs, serveReq{kind: "upload", tenant: r.tenant, format: r.format, upload: r.upload})
				r.kind, r.format = "grid-upload", ""
			}
			reqs = append(reqs, r)
		}
		s.plan = append(s.plan, reqs)
	}
	return s
}

func (s *serve) setUp() error {
	before := time.Now()
	s.srv = server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	s.serverEpoch = before
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ctx, ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{
		Timeout:   serveTimeout + 10*time.Second, // a transport guard; the server deadline fires first
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients},
	}
	// Warm the captures every grid in the mix replays.
	for _, b := range prog.All {
		body, _ := json.Marshal(server.GridRequest{Bench: b.Name, Specs: []string{specGAg12}, Branches: 100_000})
		resp := s.post("/v1/grid", "warm", body)
		if resp.err != nil || resp.status != http.StatusOK {
			return fmt.Errorf("warming %s: status %d, %v", b.Name, resp.status, resp.err)
		}
	}
	b := prog.All[splitmix(s.seed)%uint64(len(prog.All))]
	src, err := b.NewSource(seededDataSet(b, s.seed, 99))
	if err != nil {
		return err
	}
	if s.pool, err = trace.Collect(src, uploadEvents+4096); err != nil {
		return err
	}
	s.nextUp = 0
	if s.local == nil {
		s.local = trace.NewCaptureCache()
	}
	return s.prepare()
}

// prepare cuts the next round's uploads from the pool, each a fresh
// window so every upload is new to the server's cache, and renders
// every request body.
func (s *serve) prepare() error {
	s.uploads = s.uploads[:0]
	for _, r := range s.plan {
		for _, q := range r {
			if q.kind != "upload" {
				continue
			}
			off := s.nextUp % (len(s.pool.Events) - uploadEvents)
			s.nextUp++
			u, err := encodeUpload(s.pool.Events[off:off+uploadEvents], q.format)
			if err != nil {
				return err
			}
			for len(s.uploads) <= q.upload {
				s.uploads = append(s.uploads, upload{})
			}
			s.uploads[q.upload] = u
		}
	}
	s.bodies = make([][][]byte, len(s.plan))
	for c, reqs := range s.plan {
		for _, q := range reqs {
			s.bodies[c] = append(s.bodies[c], s.body(q))
		}
	}
	return nil
}

func encodeUpload(events []trace.Event, format string) (upload, error) {
	var buf bytes.Buffer
	src := (&trace.Trace{Events: events}).Reader()
	if format == "text" {
		if err := trace.WriteText(&buf, src); err != nil {
			return upload{}, err
		}
	} else {
		w, err := trace.NewWriter(&buf)
		if err != nil {
			return upload{}, err
		}
		if err := w.WriteAll(src); err != nil {
			return upload{}, err
		}
	}
	u := upload{body: buf.Bytes()}
	sum := sha256.Sum256(u.body)
	u.key = "upload:" + hex.EncodeToString(sum[:8])
	var dec trace.Source
	if format == "text" {
		dec = trace.NewTextReader(bytes.NewReader(u.body))
	} else {
		fr, err := trace.NewFileReader(bytes.NewReader(u.body))
		if err != nil {
			return upload{}, err
		}
		dec = fr
	}
	var p trace.Packed
	for {
		e, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return upload{}, err
		}
		p.Append(e)
	}
	u.snap = p.View(p.Len())
	u.checksum = fmt.Sprintf("%016x", u.snap.Checksum())
	return u, nil
}

// body renders request q's payload for this round.
func (s *serve) body(q serveReq) []byte {
	if q.kind == "upload" {
		return s.uploads[q.upload].body
	}
	req := server.GridRequest{Specs: q.specs, Branches: q.branches, Stream: q.stream,
		Interval: q.interval, TopMispredicted: q.top, TimeoutMS: serveTimeout.Milliseconds()}
	if q.kind == "grid-upload" {
		req.Trace = s.uploads[q.upload].key
	} else {
		req.Bench = q.bench
	}
	b, _ := json.Marshal(req) // a GridRequest always marshals
	return b
}

func (s *serve) post(path, tenant string, body []byte) serveResp {
	r := serveResp{start: time.Now()}
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		r.err, r.end = err, time.Now()
		return r
	}
	req.Header.Set("X-Tenant", tenant)
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		r.err, r.end = err, time.Now()
		return r
	}
	r.status = resp.StatusCode
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	return r
}

func (s *serve) round(tr *tracer) (*roundOut, error) {
	s.stats = s.srv.CacheStats()
	s.resps = make([][]serveResp, len(s.plan))
	began := time.Now()
	var wg sync.WaitGroup
	for c := range s.plan {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]serveResp, 0, len(s.plan[c]))
			for i, q := range s.plan[c] {
				path := "/v1/grid"
				if q.kind == "upload" {
					path = "/v1/traces"
				}
				out = append(out, s.post(path, q.tenant, s.bodies[c][i]))
			}
			s.resps[c] = out
		}(c)
	}
	wg.Wait()
	s.tr, s.began = tr, began
	out := &roundOut{}
	if tr != nil {
		out.layer = map[string]float64{}
	}
	return out, nil
}

// roundSpans records a traced round's spans, outside the round's timing:
// one per HTTP request, plus the server tracer's spans that began in the
// round.
func (s *serve) roundSpans() []spanRec {
	for c, reqs := range s.plan {
		for i, q := range reqs {
			r := s.resps[c][i]
			s.tr.add("http.request", 0, r.start, r.end, "kind", q.kind, "tenant", q.tenant,
				"status", strconv.Itoa(r.status))
		}
	}
	var recs []span.Record
	for _, rec := range s.srv.Tracer().Snapshot() {
		if s.serverEpoch.Add(rec.Start).After(s.began) {
			recs = append(recs, rec)
		}
	}
	s.tr.addProgram(recs, s.serverEpoch.Sub(s.tr.epoch))
	return s.tr.records()
}

// streamLine is one NDJSON line of a streamed grid response.
type streamLine struct {
	Type    string               `json:"type"`
	Cell    *server.Cell         `json:"cell"`
	Summary *server.GridResponse `json:"summary"`
}

// verdict is one checked request.
type verdict struct {
	q      serveReq
	resp   serveResp
	cause  string
	events uint64
	cells  []server.Cell
	lines  int
}

// check verifies every response of the round, fills the round's ops and,
// for a traced round, its per-layer values; then cuts the next round's
// uploads.
func (s *serve) check(out *roundOut) error {
	var vs []verdict
	for c, reqs := range s.plan {
		for i, q := range reqs {
			v := verdict{q: q, resp: s.resps[c][i]}
			s.verify(&v)
			vs = append(vs, v)
			o := op{lat: v.resp.end.Sub(v.resp.start), events: v.events, cause: v.cause}
			out.ops = append(out.ops, o)
			if v.cause != "" {
				s.fails[v.cause]++
			}
		}
	}
	if out.layer != nil {
		s.layerValues(out, vs)
	}
	s.resps = nil
	return s.prepare()
}

// fail records why a request failed and reports it on standard error;
// failures are never retried.
func (v *verdict) fail(cause, format string, args ...any) {
	v.cause = cause
	fmt.Fprintf(os.Stderr, "serve: %s request (tenant %s, %s) failed: %s: %s\n",
		v.q.kind, v.q.tenant, v.q.bench, cause, fmt.Sprintf(format, args...))
}

// verify checks one response against locally computed references.
func (s *serve) verify(v *verdict) {
	r := v.resp
	switch {
	case r.err != nil:
		v.fail("transport", "%v", r.err)
		return
	case r.status != http.StatusOK:
		v.fail("http_"+strconv.Itoa(r.status), "%s", bytes.TrimSpace(r.body))
		return
	}
	if v.q.kind == "upload" {
		var info struct {
			Trace    string `json:"trace"`
			Events   int    `json:"events"`
			Checksum string `json:"checksum"`
		}
		u := s.uploads[v.q.upload]
		if err := json.Unmarshal(r.body, &info); err != nil || info.Trace != u.key ||
			info.Checksum != u.checksum || info.Events != u.snap.Len() {
			v.fail(causeWrong, "upload reply %s, want key %s checksum %s events %d (%v)",
				bytes.TrimSpace(r.body), u.key, u.checksum, u.snap.Len(), err)
		}
		return
	}
	var resp server.GridResponse
	if v.q.stream {
		lines := bufio.NewScanner(bytes.NewReader(r.body))
		var last streamLine
		for lines.Scan() {
			var l streamLine
			if err := json.Unmarshal(lines.Bytes(), &l); err != nil {
				v.fail(causeWrong, "stream line %d: %v", v.lines+1, err)
				return
			}
			v.lines++
			if l.Type == "cell" && l.Cell != nil {
				resp.Cells = append(resp.Cells, *l.Cell)
			}
			last = l
		}
		if last.Type != "summary" || last.Summary == nil {
			v.fail("no_summary", "last of %d lines is %q (%v)", v.lines, last.Type, lines.Err())
			return
		}
		cells := resp.Cells
		resp = *last.Summary
		resp.Cells = cells
	} else if err := json.Unmarshal(r.body, &resp); err != nil {
		v.fail(causeWrong, "reply: %v", err)
		return
	}
	if resp.Failed != 0 || resp.Completed != len(v.q.specs) {
		// The JSON reply marks cells that did not run; a streamed
		// reply's summary leaves out cells that never started, so a
		// short Completed count is a failure too.
		cause := "cell_error"
		if resp.Failed == 0 {
			cause = "incomplete"
		}
		for _, c := range resp.Cells {
			if strings.Contains(c.Error, context.DeadlineExceeded.Error()) {
				cause = "deadline"
			}
		}
		if r.end.Sub(r.start) >= serveTimeout {
			cause = "deadline"
		}
		v.fail(cause, "completed %d, failed %d of %d cells after %v", resp.Completed, resp.Failed,
			len(v.q.specs), r.end.Sub(r.start))
		return
	}
	target, snap, err := s.target(v.q, resp.Branches)
	if err != nil {
		v.fail(causeWrong, "reference: %v", err)
		return
	}
	if len(resp.Cells) != len(v.q.specs) {
		v.fail(causeWrong, "%d cells for %d specs", len(resp.Cells), len(v.q.specs))
		return
	}
	if want := s.checksum(target, snap, resp.Branches); resp.Checksum != want {
		v.fail(causeWrong, "checksum %s, local snapshot %s", resp.Checksum, want)
		return
	}
	for i, c := range resp.Cells {
		want, err := s.reference(target, snap, v.q.specs[i], resp.Branches)
		if err != nil || c.Spec != want.Spec || c.Predictions != want.Predictions ||
			c.Mispredictions != want.Mispredictions || c.Events != want.Events {
			v.fail(causeWrong, "cell %+v, direct sim.Run %+v (%v)", c, want, err)
			return
		}
		v.events += c.Events
	}
	v.cells = resp.Cells
}

// target returns the snapshot a grid request replays, captured or
// decoded locally, and a key naming it.
func (s *serve) target(q serveReq, branches uint64) (string, trace.Snapshot, error) {
	if q.kind == "grid-upload" {
		u := s.uploads[q.upload]
		return u.key, u.snap, nil
	}
	b, err := prog.ByName(q.bench)
	if err != nil {
		return "", trace.Snapshot{}, err
	}
	snap, err := s.local.Capture(context.Background(), b.Name, branches, func() (trace.Source, error) {
		return b.NewSource(b.Testing)
	})
	return b.Name, snap, err
}

// checksum is the local snapshot's checksum, memoised for benchmarks.
func (s *serve) checksum(target string, snap trace.Snapshot, branches uint64) string {
	key := target + "|" + strconv.FormatUint(branches, 10)
	if c, ok := s.sums[key]; ok {
		return c
	}
	c := fmt.Sprintf("%016x", snap.Checksum())
	if !strings.HasPrefix(target, "upload:") {
		s.sums[key] = c
	}
	return c
}

// reference is a direct sim.Run of one grid cell, memoised.
func (s *serve) reference(target string, snap trace.Snapshot, specStr string, branches uint64) (server.Cell, error) {
	key := target + "|" + specStr + "|" + strconv.FormatUint(branches, 10)
	if c, ok := s.refs[key]; ok {
		return c, nil
	}
	sp, err := spec.Parse(specStr)
	if err != nil {
		return server.Cell{}, err
	}
	p, err := spec.Build(sp, nil)
	if err != nil {
		return server.Cell{}, err
	}
	res, err := sim.Run(p, snap.Reader(), sim.Options{ContextSwitches: sp.ContextSwitch, MaxCondBranches: branches})
	if err != nil {
		return server.Cell{}, err
	}
	c := server.Cell{Spec: sp.String(), Predictions: res.Accuracy.Predictions,
		Mispredictions: res.Accuracy.Predictions - res.Accuracy.Correct, Events: experiments.ResultEvents(res)}
	if !strings.HasPrefix(target, "upload:") {
		s.refs[key] = c
	}
	return c, nil
}

// matchSlack absorbs the error of the server tracer's estimated epoch
// when a grid span is matched to the client request that caused it.
const matchSlack = time.Millisecond

// layerValues derives a traced round's per-layer values from the
// server's grid spans and their children, the client's request spans
// and the verified responses.
func (s *serve) layerValues(out *roundOut, vs []verdict) {
	var reqs, grids []spanRec
	var program []spanRec
	for _, r := range s.roundSpans() {
		switch {
		case r.Source == "bench" && r.Name == "http.request":
			reqs = append(reqs, r)
		case r.Source == "program":
			program = append(program, r)
			if r.Name == "grid" {
				grids = append(grids, r)
			}
		}
	}
	kids := childrenOf(program)
	replayCover := func(g spanRec) time.Duration {
		var ivs []interval
		for _, k := range kids[g.ID] {
			if k.Name == "replay" {
				ivs = append(ivs, k.iv())
			}
		}
		return covered(g.Start, g.End, ivs)
	}

	// Match each grid span to the one request whose window holds it.
	owner := map[int]spanRec{} // verdict index -> grid span
	for _, g := range grids {
		match, n := -1, 0
		for k, v := range vs {
			q := v.q
			if q.kind == "upload" || q.tenant != g.Attrs["tenant"] || strconv.Itoa(len(q.specs)) != g.Attrs["specs"] {
				continue
			}
			if g.Start >= reqs[k].Start-matchSlack && g.End <= reqs[k].End+matchSlack {
				match, n = k, n+1
			}
		}
		if n == 1 {
			owner[match] = g
		}
	}

	var gridMS, captureMS, replayMS, selfMS, httpMS []float64
	for _, g := range grids {
		var caps []interval
		for _, k := range kids[g.ID] {
			if k.Name == "capture" {
				caps = append(caps, k.iv())
			}
		}
		gridMS = append(gridMS, float64(g.dur())/1e6)
		captureMS = append(captureMS, float64(covered(g.Start, g.End, caps))/1e6)
		replayMS = append(replayMS, float64(replayCover(g))/1e6)
		selfMS = append(selfMS, float64(selfTime(g, kids[g.ID]))/1e6)
	}
	var tapEv, gagEv, allEv, preds, misses, lines uint64
	var tapDur, gagDur, allDur time.Duration
	for k, v := range vs {
		lines += uint64(v.lines)
		if v.cause != "" {
			continue
		}
		for _, c := range v.cells {
			preds += c.Predictions
			misses += c.Mispredictions
		}
		g, ok := owner[k]
		if !ok {
			continue
		}
		httpMS = append(httpMS, float64(reqs[k].dur()-g.dur())/1e6)
		d := replayCover(g)
		allEv, allDur = allEv+v.events, allDur+d
		switch {
		case v.q.stream:
			tapEv, tapDur = tapEv+v.events, tapDur+d
		case v.q.kind != "grid-upload":
			gagEv, gagDur = gagEv+v.events, gagDur+d
		}
	}
	var capture time.Duration
	fast, cells := 0, 0
	for _, r := range program {
		switch {
		case r.Name == "capture" && r.Attrs["hit"] == "false":
			capture += r.dur()
		case r.Name == "replay":
			if b, ok := r.Attrs["batch"]; ok {
				n, _ := strconv.Atoi(b)
				f, _ := strconv.Atoi(r.Attrs["fastcells"])
				cells, fast = cells+n, fast+f
			} else {
				cells++
				if r.Attrs["fastpath"] == "true" {
					fast++
				}
			}
		}
	}
	st := s.srv.CacheStats()
	hits, missed := st.Hits-s.stats.Hits, st.Misses-s.stats.Misses
	var events uint64
	for _, o := range out.ops {
		if o.ok() {
			events += o.events
		}
	}
	p50 := func(xs []float64) float64 {
		return exact(xs).quantile(0.5)
	}
	for k, v := range map[string]float64{
		"cpu.capture_s":             capture.Seconds(),
		"trace.cache_hit_ratio":     float64(hits) / float64(max(hits+missed, 1)),
		"trace.cache_mb":            float64(st.Bytes) / 1e6,
		"fastpath.cell_ratio":       float64(fast) / float64(max(cells, 1)),
		"fastpath.gag_events_per_s": rate(gagEv, gagDur),
		"fastpath.tap_events_per_s": rate(tapEv, tapDur),
		"sim.runmany_events_per_s":  rate(allEv, allDur),
		"sim.events":                float64(events),
		"sim.predictions":           float64(preds),
		"sim.mispredictions":        float64(misses),
		"server.grid_p50_ms":        p50(gridMS),
		"server.capture_ms":         p50(captureMS),
		"server.replay_ms":          p50(replayMS),
		"server.self_ms":            p50(selfMS),
		"server.http_p50_ms":        p50(httpMS),
		"server.stream_lines":       float64(lines),
	} {
		out.layer[k] = v
	}
	fmt.Printf("serve: traced round matched %d of %d grid spans to their requests\n", len(owner), len(grids))
}

func (s *serve) finish([]*roundOut) error { return nil }

func (s *serve) layers([]*roundOut) map[string]float64 {
	return map[string]float64{
		"server.refused":           float64(s.fails["http_429"] + s.fails["http_503"]),
		"server.deadline_failures": float64(s.fails["deadline"]),
	}
}

func (s *serve) unmeasured() map[string]string {
	inServer := "runs inside the server with no span around it"
	family := "the mix replays GAg and PAg grids only; replay spans carry no per-family events"
	return map[string]string{
		"cpu.capture_events_per_s":      "captures are warmed in set-up; the timed phase captures nothing",
		"spec.build_us":                 "spec.Build " + inServer,
		"spec.build_s":                  "spec.Build " + inServer,
		"fastpath.pag_events_per_s":     family,
		"fastpath.pap_events_per_s":     family,
		"fastpath.generic_events_per_s": family,
		"fastpath.static_events_per_s":  family,
		"sim.runner_events_per_s":       "every cell in the mix is kernel-eligible",
		"experiments.cell_p50_ms":       "no experiment grid on this workload",
		"experiments.cell_p90_ms":       "no experiment grid on this workload",
		"experiments.sched_overhead_s":  "no experiment grid on this workload",
		"experiments.report_s":          "no experiment grid on this workload",
	}
}

func (s *serve) roundSeconds() float64 { return 2.8 }

func (s *serve) limit() time.Duration { return serveTimeout }

func (s *serve) tearDown() {
	if s.stop == nil {
		return
	}
	s.stop()
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "serve: shutdown:", err)
	}
	s.client.CloseIdleConnections()
	s.stop = nil
}
