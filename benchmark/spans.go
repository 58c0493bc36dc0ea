package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

var epoch = time.Now()

// nanotime reads the monotonic clock in nanoseconds since start-up.
func nanotime() int64 { return int64(time.Since(epoch)) }

// span is one timed interval at a layer boundary. Spans of one pass
// share its pass number; parent indexes the enclosing span (-1 for a
// root).
type span struct {
	name       string
	workload   string
	pass       int
	parent     int
	start, end int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the control pass runs the same code
// without timers. It is used from one goroutine.
type tracer struct {
	spans    []span
	stack    []int
	workload string
	pass     int
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{name: name, workload: t.workload, pass: t.pass, parent: parent, start: nanotime()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := nanotime()
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].end = now
}

// selfTimes sums, by span name, each span's duration minus the part its
// child spans cover, over the spans from index from on.
func (t *tracer) selfTimes(from int) map[string]int64 {
	self := map[string]int64{}
	for _, s := range t.spans[from:] {
		d := s.end - s.start
		self[s.name] += d
		if s.parent >= from {
			self[t.spans[s.parent].name] -= d
		}
	}
	return self
}

// timedReader and timedWriter record each Read and Write of the trace
// file and the digest as a span.
type timedReader struct {
	r io.Reader
	t *tracer
}

func (r timedReader) Read(p []byte) (int, error) {
	r.t.begin("trace.read")
	n, err := r.r.Read(p)
	r.t.end()
	return n, err
}

type timedWriter struct {
	w io.Writer
	t *tracer
}

func (w timedWriter) Write(p []byte) (int, error) {
	w.t.begin("trace.digest")
	n, err := w.w.Write(p)
	w.t.end()
	return n, err
}

// writeChrome writes every span as a Chrome trace-event "complete"
// event, which Perfetto and chrome://tracing open. Each workload is a
// process and each pass a thread.
func (t *tracer) writeChrome(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	sep := ""
	event := func(format string, args ...any) {
		w.WriteString(sep)
		fmt.Fprintf(w, format, args...)
		sep = ","
	}
	pids := map[string]int{}
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	for _, s := range t.spans {
		pid, ok := pids[s.workload]
		if !ok {
			pid = len(pids) + 1
			pids[s.workload] = pid
			name, _ := json.Marshal(s.workload)
			event(`{"name":"process_name","ph":"M","pid":%d,"args":{"name":%s}}`, pid, name)
		}
		event(`{"name":%q,"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f}`,
			s.name, pid, s.pass, float64(s.start)/1e3, float64(s.end-s.start)/1e3)
	}
	w.WriteString("]}\n")
	return w.Flush()
}
