package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"testing"
)

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		name  string
		funcs []string // innermost first
		want  string
	}{
		{"innermost module frame wins",
			[]string{"kloc/internal/rbtree.(*Tree).Insert", "kloc/internal/kloc.(*Registry).Add", "kloc/internal/sim.(*Engine).Run"},
			"rbtree"},
		{"runtime helpers go to their caller",
			[]string{"runtime.mallocgc", "runtime.newobject", "kloc/internal/kloc.(*Registry).Add", "kloc/internal/sim.(*Engine).Run"},
			"kloc"},
		{"GC assist goes to the allocating layer",
			[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "kloc/internal/fs.(*FS).Write"},
			"fs"},
		{"closures belong to their package",
			[]string{"kloc/internal/harness.prepare.func2", "kloc/internal/sim.(*Engine).Run"},
			"harness"},
		{"background mark workers are the GC",
			[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit"},
			"gc"},
		{"a module package outside the catalog is other",
			[]string{"kloc/internal/perfbench.Run", "kloc/internal/sim.(*Engine).Run"},
			"other"},
		{"no module frame is other",
			[]string{"runtime.bgsweep", "runtime.goexit"},
			"other"},
		{"the benchmark's own frames are other",
			[]string{"encoding/json.Marshal", "main.resultDigest", "main.main"},
			"other"},
	} {
		if got := layerOf(tc.funcs); got != tc.want {
			t.Errorf("%s: layerOf(%v) = %q, want %q", tc.name, tc.funcs, got, tc.want)
		}
	}
}

func TestFold(t *testing.T) {
	by, total := fold([]stack{
		{funcs: []string{"runtime.mallocgc", "kloc/internal/rbtree.(*Tree).Insert"}, count: 3},
		{funcs: []string{"kloc/internal/rbtree.(*Tree).Delete"}, count: 2},
		{funcs: []string{"runtime.gcBgMarkWorker"}, count: 4},
		{funcs: nil, count: 1},
	})
	want := map[string]int64{"rbtree": 5, "gc": 4, "other": 1}
	if total != 10 || !reflect.DeepEqual(by, want) {
		t.Fatalf("fold = %v, %d; want %v, 10", by, total, want)
	}
}

// pb is a minimal protobuf encoder for hand-built profiles.
type pb []byte

func (b pb) varint(tag int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(tag)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(tag int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(tag)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func (b pb) packed(tag int, vs ...uint64) pb {
	var data []byte
	for _, v := range vs {
		data = binary.AppendUvarint(data, v)
	}
	return b.bytes(tag, data)
}

func TestParseProfile(t *testing.T) {
	var p pb
	for _, s := range []string{"", "main.main", "kloc/internal/rbtree.(*Tree).Insert", "kloc/internal/kloc.(*Registry).Add", "runtime.mallocgc"} {
		p = p.bytes(6, []byte(s))
	}
	for id, name := range []uint64{1, 2, 3, 4} {
		p = p.bytes(5, pb(nil).varint(1, uint64(id+1)).varint(2, name))
	}
	line := func(fn uint64) []byte { return pb(nil).varint(1, fn).varint(2, 10) }
	// Location 1 holds Insert inlined into Add: the inlined function
	// comes first.
	p = p.bytes(4, pb(nil).varint(1, 1).varint(3, 0x1000).bytes(4, line(2)).bytes(4, line(3)))
	p = p.bytes(4, pb(nil).varint(1, 2).bytes(4, line(1)))
	p = p.bytes(4, pb(nil).varint(1, 3).bytes(4, line(4)))
	// Repeated fields of up to two values are written unpacked, longer
	// ones packed; a fixed64 field is skipped.
	p = p.bytes(2, pb(nil).varint(1, 1).varint(1, 2).varint(2, 3).varint(2, 30000000))
	p = p.bytes(2, pb(nil).packed(1, 3, 1, 2).packed(2, 1, 10000000, 7))
	p = append(binary.AppendUvarint(p, 9<<3|1), make([]byte, 8)...)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stack{
		{funcs: []string{"kloc/internal/rbtree.(*Tree).Insert", "kloc/internal/kloc.(*Registry).Add", "main.main"}, count: 3},
		{funcs: []string{"runtime.mallocgc", "kloc/internal/rbtree.(*Tree).Insert", "kloc/internal/kloc.(*Registry).Add", "main.main"}, count: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseProfile =\n%v\nwant\n%v", got, want)
	}
	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}
