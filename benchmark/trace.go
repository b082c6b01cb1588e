package main

import (
	"bufio"
	"os"
	"strconv"
	"sync"
	"time"
)

// The traced run's span recorder. Spans are taken by the benchmark around
// its own calls into a layer (spans inside the daemon are a later issue),
// kept in memory, and written once at exit as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open directly.

// span holds no pointers, so the collector never scans the span lists.
type span struct {
	start, end int64  // ns since the tracer's origin
	op         uint32 // the request or call this span belongs to, counted per track
	name       spanName
}

// spanName indexes spanNames.
type spanName uint8

const (
	spanClientRequest spanName = iota
	spanNull
	spanHandlerMem
	spanHandlerDurable
	spanHandlerClustered
	spanWallDo
	spanLeaseApply
	spanAppend
	spanAppendFsync
	spanCheckpoint
	spanFollowerApply
)

var spanNames = [...]string{
	spanClientRequest:    "client.request",
	spanNull:             "nethttp.null",
	spanHandlerMem:       "leased.handler(mem)",
	spanHandlerDurable:   "leased.handler(durable)",
	spanHandlerClustered: "leased.handler(clustered)",
	spanWallDo:           "runtime.wall_do",
	spanLeaseApply:       "lease.apply",
	spanAppend:           "durable.append",
	spanAppendFsync:      "durable.append_fsync",
	spanCheckpoint:       "durable.checkpoint",
	spanFollowerApply:    "cluster.follower_apply",
}

// maxSpansPerTrack bounds a track's memory (24 B a span); later spans are
// counted as dropped, not recorded.
const maxSpansPerTrack = 200_000

type tracer struct {
	origin time.Time
	mu     sync.Mutex
	tracks []*track
}

// track is one goroutine's span list; only that goroutine appends.
type track struct {
	tr      *tracer
	name    string
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// track opens a span list with room for capacity spans, allocated now: a
// list that grows while it records would put its copying, and the collections
// its garbage triggers, on the traced side of every comparison.
func (t *tracer) track(name string, capacity int) *track {
	tk := &track{tr: t, name: name, spans: make([]span, 0, min(capacity, maxSpansPerTrack))}
	t.mu.Lock()
	t.tracks = append(t.tracks, tk)
	t.mu.Unlock()
	return tk
}

// add records a finished span.
func (k *track) add(name spanName, start, end time.Time, op uint32) {
	if len(k.spans) >= maxSpansPerTrack {
		k.dropped++
		return
	}
	k.spans = append(k.spans, span{
		name:  name,
		start: int64(start.Sub(k.tr.origin)),
		end:   int64(end.Sub(k.tr.origin)),
		op:    op,
	})
}

// writeChrome writes every track as complete ("X") events, one thread per
// track, timestamps in microseconds.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	var b []byte
	for tid, k := range t.tracks {
		b = append(b[:0], `{"name":"thread_name","ph":"M","pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(tid), 10)
		b = append(b, `,"args":{"name":`...)
		b = strconv.AppendQuote(b, k.name)
		b = append(b, `,"dropped":`...)
		b = strconv.AppendInt(b, int64(k.dropped), 10)
		b = append(b, "}}"...)
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.Write(b)
		for i := range k.spans {
			s := &k.spans[i]
			b = append(b[:0], `,{"name":`...)
			b = strconv.AppendQuote(b, spanNames[s.name])
			b = append(b, `,"ph":"X","pid":1,"tid":`...)
			b = strconv.AppendInt(b, int64(tid), 10)
			b = append(b, `,"ts":`...)
			b = strconv.AppendFloat(b, float64(s.start)/1e3, 'f', 3, 64)
			b = append(b, `,"dur":`...)
			b = strconv.AppendFloat(b, float64(s.end-s.start)/1e3, 'f', 3, 64)
			b = append(b, `,"args":{"op":`...)
			b = strconv.AppendUint(b, uint64(s.op), 10)
			b = append(b, "}}"...)
			w.Write(b)
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
