package main

import (
	"path/filepath"
	"testing"
)

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{0, 10}, {20, 25}}, 15},
		{[][2]int64{{20, 25}, {0, 10}}, 15},
		{[][2]int64{{0, 10}, {5, 15}}, 15},  // overlap
		{[][2]int64{{0, 10}, {2, 4}}, 10},   // nested
		{[][2]int64{{0, 10}, {10, 12}}, 12}, // touching
	} {
		if got := unionLen(c.iv); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "tick", Start: 0, End: 100},
		// Two member ticks on parallel workers overlap in [30, 50).
		{ID: 1, Parent: 0, Name: "member", Start: 10, End: 50},
		{ID: 2, Parent: 0, Name: "member", Start: 30, End: 70},
		// A child that outlives its parent counts only inside it.
		{ID: 3, Parent: 0, Name: "late", Start: 90, End: 120},
		// A grandchild is charged to its own parent, not to tick.
		{ID: 4, Parent: 1, Name: "inner", Start: 20, End: 25},
		{ID: 5, Parent: -1, Name: "tick", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	want := map[string]int64{
		"tick":   (100 - 60 - 10) + 10, // children cover [10,70) and [90,100)
		"member": (40 - 5) + 40,
		"late":   30,
		"inner":  5,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
}

func TestTracerRecordsAndNilIsNoop(t *testing.T) {
	var off *tracer
	if id := off.begin("x", -1); id != -1 {
		t.Errorf("nil tracer begin = %d, want -1", id)
	}
	off.end(-1)
	if off.snapshot() != nil {
		t.Error("nil tracer returned spans")
	}

	tr := newTracer()
	root := tr.begin("op", -1)
	child := tr.begin("layer", root)
	tr.end(child)
	open := tr.begin("unfinished", root)
	_ = open
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot kept %d spans, want the 2 closed ones", len(spans))
	}
	if spans[1].Parent != root || spans[1].Name != "layer" {
		t.Errorf("child span = %+v", spans[1])
	}
	if d := durations(spans, "layer"); len(d) != 1 || d[0] < 0 {
		t.Errorf("durations(layer) = %v", d)
	}
	if err := writeSpans(filepath.Join(t.TempDir(), "spans.jsonl"), spans); err != nil {
		t.Fatal(err)
	}
}
