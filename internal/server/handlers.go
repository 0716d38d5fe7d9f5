// HTTP surface: route table, request envelopes and the slow-client
// write discipline. Every response write happens under a per-write
// deadline (http.NewResponseController), so a client that stops
// reading costs the server one connection, never a worker.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"twolevel/internal/span"
	"twolevel/internal/telemetry"
	"twolevel/internal/trace"
)

// uploadInfo records one accepted trace upload.
type uploadInfo struct {
	Trace    string `json:"trace"`
	Events   int    `json:"events"`
	Conds    int    `json:"conds"`
	Checksum string `json:"checksum"`
}

// routes builds the server mux.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/grid", s.handleGrid)
	mux.HandleFunc("POST /v1/traces", s.handleUpload)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /progress", s.handleProgress)
	// Spans and pprof ride the PR-4 monitor's handler, fed by the
	// server-wide grid monitor and tracer; /progress renders all scopes
	// from the metrics registry instead.
	grid := s.grid.Handler()
	mux.Handle("GET /spans", grid)
	mux.Handle("GET /debug/pprof/", grid)
	return mux
}

// refuse writes a JSON refusal with a Retry-After hint.
func (s *Server) refuse(w http.ResponseWriter, status int, retryAfter time.Duration, msg string) {
	if retryAfter > 0 {
		secs := int(retryAfter / time.Second)
		if retryAfter%time.Second != 0 {
			secs++
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// armWrite pushes the slow-client write deadline forward before a
// response write. Socket deadlines compare against the kernel's wall
// clock, so this reads real time (now), never the injected test clock.
// Errors are ignored: a transport without deadline support (e.g. a
// test ResponseRecorder) just writes unprotected.
func (s *Server) armWrite(rc *http.ResponseController) {
	rc.SetWriteDeadline(now().Add(s.cfg.WriteTimeout))
}

// armRead bounds a request-body read the same way: a slow-loris client
// dribbling its body holds a connection for WriteTimeout, not a worker
// slot forever.
func (s *Server) armRead(rc *http.ResponseController) {
	rc.SetReadDeadline(now().Add(s.cfg.WriteTimeout))
}

// writeJSON writes one JSON response under the write deadline.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	rc := http.NewResponseController(w)
	s.armWrite(rc)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleGrid is POST /v1/grid: the admission gauntlet, then prepare +
// execute, then a single JSON document or an NDJSON stream.
func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	t := s.ten.get(r.Header.Get("X-Tenant"))
	release, ok := s.admit(w, r, t)
	if !ok {
		return
	}
	defer release()
	began := s.cfg.clock()

	var req GridRequest
	s.armRead(http.NewResponseController(w))
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.agg.reject()
		t.mon.reject()
		s.refuse(w, http.StatusBadRequest, 0, "bad request body: "+err.Error())
		return
	}

	timeout := s.cfg.RequestTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	sp := s.tracer.Root("grid",
		span.Str("tenant", t.name),
		span.Int("specs", len(req.Specs)))
	defer sp.End()

	job, err := s.prepare(ctx, t, req, sp)
	if err != nil {
		s.gridFailure(w, t, err, began)
		return
	}

	resp := GridResponse{
		Bench:    req.Bench,
		Trace:    req.Trace,
		Branches: job.branches,
		Checksum: fmt.Sprintf("%016x", job.snap.Checksum()),
	}
	if req.Stream {
		s.streamGrid(w, ctx, t, job, resp, began)
		return
	}
	//lint:allow errflow execute records every failure in the cells themselves (settleCell/failRemaining), and tally counts them into resp.Failed
	cells, _ := s.execute(ctx, job, nil)
	resp.Cells = cells
	resp.tally(cells)
	elapsed := s.cfg.clock().Sub(began)
	resp.ElapsedMS = elapsed.Milliseconds()
	s.agg.done(resp.Failed == 0, elapsed)
	t.mon.done(resp.Failed == 0, elapsed)
	s.writeJSON(w, http.StatusOK, resp)
}

// gridFailure maps a prepare error onto the wire and the monitors.
func (s *Server) gridFailure(w http.ResponseWriter, t *tenant, err error, began time.Time) {
	status := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		status = he.status
	}
	if status < 500 {
		s.agg.reject()
		t.mon.reject()
	} else {
		elapsed := s.cfg.clock().Sub(began)
		s.agg.done(false, elapsed)
		t.mon.done(false, elapsed)
	}
	s.refuse(w, status, 0, err.Error())
}

// streamGrid writes the NDJSON response as typed events: per cell, its
// "interval" samples and "verdict" lines (when requested), then the
// "cell" line and a "progress" line; a keepalive heartbeat covers the
// gaps and a final "summary" line closes the stream. Every line is
// written and flushed under the slow-client deadline, so a stalled
// reader aborts the grid instead of parking a worker.
func (s *Server) streamGrid(w http.ResponseWriter, ctx context.Context, t *tenant, job *gridJob, resp GridResponse, began time.Time) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	sw := s.newStreamWriter(w)
	defer sw.close()
	progress := progressEvent{Planned: len(job.cells)}
	emit := func(idx int, c Cell) error {
		if sink := job.sink(idx); sink != nil && c.Error == "" {
			for i := range sink.Samples {
				ev := streamEvent{Type: "interval", Spec: c.Spec, Interval: &sink.Samples[i]}
				if err := sw.send(ev); err != nil {
					return err
				}
			}
			for _, row := range sink.TopMispredicted {
				v := newVerdictEvent(row)
				ev := streamEvent{Type: "verdict", Spec: c.Spec, Verdict: &v}
				if err := sw.send(ev); err != nil {
					return err
				}
			}
		}
		if c.Error == "" {
			progress.Done++
		} else {
			progress.Failed++
		}
		cell := c
		if err := sw.send(streamEvent{Type: "cell", Cell: &cell}); err != nil {
			return err
		}
		return sw.send(streamEvent{Type: "progress", Progress: &progress})
	}
	// The summary counts every cell execute settled, including those it
	// failed without emitting (a deadline that fired while waiting for
	// slots).
	cells, execErr := s.execute(ctx, job, emit)
	resp.tally(cells)
	elapsed := s.cfg.clock().Sub(began)
	resp.ElapsedMS = elapsed.Milliseconds()
	ok := resp.Failed == 0 && execErr == nil
	s.agg.done(ok, elapsed)
	t.mon.done(ok, elapsed)
	if err := sw.send(streamEvent{Type: "summary", Summary: &resp}); err != nil {
		s.log.Warn("stream summary line lost to a poisoned stream", "tenant", t.name, "err", err)
	}
}

// handleUpload is POST /v1/traces: accept a binary (TLBPTRC1) or text
// trace, capture it once into the shared cache keyed by content hash —
// concurrent identical uploads singleflight onto one capture — and
// return the replay key.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	t := s.ten.get(r.Header.Get("X-Tenant"))
	s.agg.request()
	t.mon.request()
	if s.draining.Load() {
		s.agg.drainOne()
		t.mon.drainOne()
		s.refuse(w, http.StatusServiceUnavailable, s.cfg.DrainTimeout, "server is draining")
		return
	}
	if allowed, wait := t.bucket.take(); !allowed {
		s.agg.quotaDeny()
		t.mon.quotaDeny()
		s.refuse(w, http.StatusTooManyRequests, wait, "tenant quota exhausted")
		return
	}
	s.armRead(http.NewResponseController(w))
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		s.agg.reject()
		t.mon.reject()
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.refuse(w, status, 0, "reading upload: "+err.Error())
		return
	}
	sum := sha256.Sum256(body)
	// The key doubles as the shared-cache key; the "upload:" prefix
	// keeps it disjoint from benchmark keys ("bench\x00..."), and it is
	// plain printable ASCII so curl/jq clients can round-trip it.
	key := "upload:" + hex.EncodeToString(sum[:8])
	open := func() (trace.Source, error) {
		if bytes.HasPrefix(body, []byte("TLBPTRC1")) {
			return trace.NewFileReader(bytes.NewReader(body))
		}
		return trace.NewTextReader(bytes.NewReader(body)), nil
	}
	snap, hit, err := s.cache.CaptureWithStatus(r.Context(), key, allConds, open)
	if err == nil {
		t.recordCapture(hit)
	}
	if err != nil {
		s.agg.reject()
		t.mon.reject()
		s.refuse(w, http.StatusBadRequest, 0, "decoding upload: "+err.Error())
		return
	}
	if snap.Len() == 0 {
		s.agg.reject()
		t.mon.reject()
		s.refuse(w, http.StatusBadRequest, 0, "empty trace")
		return
	}
	info := uploadInfo{
		Trace:    key,
		Events:   snap.Len(),
		Conds:    snap.Conds(),
		Checksum: fmt.Sprintf("%016x", snap.Checksum()),
	}
	s.uploads.Store(key, info)
	s.agg.admit()
	t.mon.admit()
	s.agg.upload(int64(len(body)))
	t.mon.upload(int64(len(body)))
	s.writeJSON(w, http.StatusOK, info)
}

// handleMetrics is GET /metrics, rendered from the unified metrics
// registry. Without a query it renders every process-scope source (the
// server-wide request counters, admission and cache gauges, then the
// server-wide grid metrics), then every tenant's labelled sources
// sorted by name. With ?tenant=NAME it renders that tenant's sources
// alone — request counters, grid metrics and capture-cache attribution,
// all under the tenant label.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if name := r.URL.Query().Get("tenant"); name != "" {
		if _, ok := s.ten.lookup(name); !ok {
			http.Error(w, "unknown tenant", http.StatusNotFound)
			return
		}
		s.reg.WriteTenant(w, name)
		return
	}
	s.reg.WriteAll(w)
}

// handleProgress is GET /progress: the same registry snapshot as
// /metrics, as a JSON document {"server": {...}, "tenants": {...}}.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.reg.JSON())
}

// serverMetrics renders process-level admission and cache state.
func (s *Server) serverMetrics() []telemetry.Metric {
	st := s.cache.Stats()
	g := telemetry.GaugeMetric
	return []telemetry.Metric{
		g("twolevel_serve_queue_depth", "Requests holding or waiting for an execution slot.", float64(s.admission.load())),
		g("twolevel_serve_draining", "1 while the server is draining, else 0.", boolGauge(s.draining.Load())),
		g("twolevel_serve_trace_cache_entries", "Captured streams resident in the shared cache.", float64(st.Entries)),
		g("twolevel_serve_trace_cache_bytes", "Approximate heap bytes held by shared captures.", float64(st.Bytes)),
		g("twolevel_serve_trace_cache_hits", "Capture requests served from stored events.", float64(st.Hits)),
		g("twolevel_serve_trace_cache_misses", "Capture requests that opened or extended a capture.", float64(st.Misses)),
	}
}

// writeServerGauges renders process-level admission and cache state.
func (s *Server) writeServerGauges(w io.Writer) {
	telemetry.WriteMetrics(w, "", s.serverMetrics())
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
