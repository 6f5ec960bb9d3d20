package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"specml/internal/dataset"
)

// Spans are recorded only at boundaries this benchmark owns: the load
// generator's root span per request, a RoundTripper on the front's hop
// transport, an http.Handler around each backend, and a dataset.Source
// around the training corpus. Nothing inside the program under test is
// instrumented.
const (
	spanRequest = "gen.request" // a predict or monitor step
	spanWrite   = "gen.write"   // a publish or session rotation
	spanHop     = "front.hop"
	spanHandler = "serve.handler"
	spanPublish = "serve.publish"
	spanCorpus  = "corpus.batch"

	// spanHeader carries the hop span's ID to the backend.
	spanHeader = "X-Specbench-Span"
)

// span is one timed interval; times are nanoseconds since the tracer
// started. Parent is 0 for a root.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Untraced runs have
// none, so they do no tracing work.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

// withSpan returns ctx carrying span id as the parent of the hops it causes.
func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

// hopTransport times each front→backend hop from the start of RoundTrip to
// the close of the response body, which the front does after reading it.
// Hops without a generator span in their context (health probes) pass
// through untimed.
type hopTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (h *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := req.Context().Value(spanKey{}).(uint64)
	if !ok {
		return h.base.RoundTrip(req)
	}
	s := span{Name: spanHop, ID: h.tr.newID(), Parent: parent, Start: h.tr.now()}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(s.ID, 10))
	resp, err := h.base.RoundTrip(req)
	if err != nil {
		s.End = h.tr.now()
		h.tr.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: h.tr, s: s}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	tr   *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.tr.now()
		b.tr.record(b.s)
	})
	return err
}

// tracedHandler times a backend's handling of each hop that carries a span
// header; model publishes get their own span name.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		name := spanHandler
		if r.Method == http.MethodPut {
			name = spanPublish
		}
		s := span{Name: name, ID: tr.newID(), Parent: parent, Start: tr.now()}
		h.ServeHTTP(w, r)
		s.End = tr.now()
		tr.record(s)
	})
}

// timedSource records one span per Batch call of a training corpus.
type timedSource struct {
	dataset.Source
	tr *tracer
}

func (s *timedSource) Batch(epoch int, indices []int, dstX, dstY [][]float64) error {
	sp := span{Name: spanCorpus, ID: s.tr.newID(), Start: s.tr.now()}
	err := s.Source.Batch(epoch, indices, dstX, dstY)
	sp.End = s.tr.now()
	s.tr.record(sp)
	return err
}

// selfTime is a span's duration minus the part of its interval that its
// children cover; overlapping children are counted once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := int64(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			if v.b > cur.b {
				cur.b = v.b
			}
		default:
			covered += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return parent.dur() - covered
}

// spanStats condenses the spans of requests whose root started in
// [from, to) into mean per-request layer times, in milliseconds.
type spanStats struct {
	frontSelfMS, hopMS, handlerMS, publishMS float64
}

func analyzeSpans(spans []span, from, to int64) spanStats {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var self, hop, handler, publish []float64
	for _, s := range spans {
		if s.Start < from || s.Start >= to {
			continue
		}
		switch s.Name {
		case spanPublish:
			publish = append(publish, ms(s.dur()))
		case spanRequest:
			hops := children[s.ID]
			self = append(self, ms(selfTime(s, hops)))
			for _, h := range hops {
				hop = append(hop, ms(selfTime(h, children[h.ID])))
				for _, c := range children[h.ID] {
					handler = append(handler, ms(c.dur()))
				}
			}
		}
	}
	return spanStats{
		frontSelfMS: mean(self),
		hopMS:       mean(hop),
		handlerMS:   mean(handler),
		publishMS:   mean(publish),
	}
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// spansPath names the span file of one traced run inside dir.
func spansPath(dir, workload string) string {
	return fmt.Sprintf("%s/%s.jsonl", dir, workload)
}
