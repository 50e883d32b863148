package trace

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
)

// WriteText writes the buffered events as a human-readable log, one
// event per line in a stable format:
//
//	seq at name ctx=<ino> obj=<id> class=<class> node=<node> size=<size>
//
// The header comment records the schema and the drop count so a reader
// knows whether the ring wrapped. Output is byte-identical across
// same-seed runs.
func (t *Tracer) WriteText(w io.Writer) error {
	_, err := w.Write(t.appendText(nil))
	return err
}

// TextString renders WriteText to a string (tests, small traces, and
// the chaos executor's per-schedule digests).
func (t *Tracer) TextString() string { return string(t.appendText(nil)) }

// textLineBytes is a typical WriteText line's length, for sizing the
// buffer up front.
const textLineBytes = 80

// appendText appends WriteText's output to buf, reading the ring in
// place.
func (t *Tracer) appendText(buf []byte) []byte {
	older, newer := t.buffered()
	n := len(older) + len(newer)
	buf = slices.Grow(buf, (n+2)*textLineBytes)
	buf = append(buf, "# kloc trace: events="...)
	buf = strconv.AppendUint(buf, t.Emitted(), 10)
	buf = append(buf, " buffered="...)
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, " dropped="...)
	buf = strconv.AppendUint(buf, t.Dropped(), 10)
	buf = append(buf, "\n# schema: seq at(ns) name ctx obj class node size\n"...)
	for _, run := range [2][]Event{older, newer} {
		for i := range run {
			e := &run[i]
			buf = strconv.AppendUint(buf, e.Seq, 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(e.At), 10)
			buf = append(buf, ' ')
			buf = append(buf, e.Name...)
			buf = append(buf, " ctx="...)
			buf = strconv.AppendUint(buf, e.Ctx, 10)
			buf = append(buf, " obj="...)
			buf = strconv.AppendUint(buf, e.Obj, 10)
			buf = append(buf, " class="...)
			buf = append(buf, e.Class...)
			buf = append(buf, " node="...)
			buf = strconv.AppendInt(buf, int64(e.Node), 10)
			buf = append(buf, " size="...)
			buf = strconv.AppendInt(buf, e.Size, 10)
			buf = append(buf, '\n')
		}
	}
	return buf
}

// WriteChrome writes the buffered events in the Chrome trace-event JSON
// format, loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
// Every event becomes an instant event ("ph":"i") on pid 1 with the
// KLOC context id as tid, so the viewer groups the timeline by context;
// a thread_name metadata record labels each context row. Timestamps
// are virtual microseconds (the format's unit), emitted with fixed
// 3-digit precision so output is byte-identical across same-seed runs.
//
// The JSON is written by hand rather than via encoding/json to keep
// field order and float formatting stable.
func (t *Tracer) WriteChrome(w io.Writer) error {
	events := t.Events()
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	// Context rows, labeled and sorted for determinism.
	ctxs := make(map[uint64]bool)
	for _, e := range events {
		ctxs[e.Ctx] = true
	}
	ids := make([]uint64, 0, len(ctxs))
	for c := range ctxs {
		ids = append(ids, c)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	first := true
	for _, c := range ids {
		label := fmt.Sprintf("kloc-ctx-%d", c)
		if c == 0 {
			label = "no-context"
		}
		if err := writeRecord(w, &first, fmt.Sprintf(
			`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`,
			c, label)); err != nil {
			return err
		}
	}
	for _, e := range events {
		ts := strconv.FormatFloat(float64(int64(e.At))/1000.0, 'f', 3, 64)
		rec := fmt.Sprintf(
			`{"name":%q,"cat":"kloc","ph":"i","s":"t","ts":%s,"pid":1,"tid":%d,`+
				`"args":{"seq":%d,"ctx":%d,"obj":%d,"class":%q,"node":%d,"size":%d}}`,
			string(e.Name), ts, e.Ctx, e.Seq, e.Ctx, e.Obj, e.Class, e.Node, e.Size)
		if err := writeRecord(w, &first, rec); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"emitted\":\"%d\",\"dropped\":\"%d\"}}\n",
		t.Emitted(), t.Dropped())
	return err
}

func writeRecord(w io.Writer, first *bool, rec string) error {
	sep := ",\n"
	if *first {
		sep = ""
		*first = false
	}
	_, err := io.WriteString(w, sep+rec)
	return err
}
