package percpu

import (
	"testing"
)

func TestTouchHitMiss(t *testing.T) {
	l := New[int](2, 4)
	if l.Touch(0, 1) {
		t.Fatal("first touch reported hit")
	}
	if !l.Touch(0, 1) {
		t.Fatal("second touch reported miss")
	}
	if l.Hits != 1 || l.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", l.Hits, l.Misses)
	}
	if r := l.HitRate(); r != 0.5 {
		t.Fatalf("hit rate %v", r)
	}
}

func TestHitRateEmpty(t *testing.T) {
	l := New[int](1, 1)
	if l.HitRate() != 0 {
		t.Fatal("empty hit rate nonzero")
	}
}

func TestCapacityEviction(t *testing.T) {
	l := New[int](1, 3)
	for i := 1; i <= 4; i++ {
		l.Touch(0, i)
	}
	if l.Len(0) != 3 {
		t.Fatalf("len = %d", l.Len(0))
	}
	if l.Contains(0, 1) {
		t.Fatal("oldest entry not evicted")
	}
	for i := 2; i <= 4; i++ {
		if !l.Contains(0, i) {
			t.Fatalf("entry %d missing", i)
		}
	}
	if cpu := l.LastCPU(1); cpu != -1 {
		t.Fatalf("evicted entry still cached on CPU %d", cpu)
	}
}

func TestRecencyOrderAfterTouch(t *testing.T) {
	l := New[int](1, 3)
	l.Touch(0, 1)
	l.Touch(0, 2)
	l.Touch(0, 3)
	l.Touch(0, 1) // 1 back to front
	l.Touch(0, 4) // evicts 2 (now the tail)
	if l.Contains(0, 2) {
		t.Fatal("LRU entry 2 should have been evicted")
	}
	if !l.Contains(0, 1) || !l.Contains(0, 3) || !l.Contains(0, 4) {
		t.Fatal("wrong eviction victim")
	}
}

func TestMultiCPUCoherence(t *testing.T) {
	l := New[string](4, 8)
	l.Touch(0, "knode-a")
	l.Touch(2, "knode-a")
	l.Touch(3, "knode-b")
	if cpu := l.LastCPU("knode-a"); cpu != 2 {
		t.Fatalf("LastCPU = %d", cpu)
	}
	if cpu := l.LastCPU("missing"); cpu != -1 {
		t.Fatalf("LastCPU(missing) = %d", cpu)
	}
	l.Invalidate("knode-a")
	if l.LastCPU("knode-a") != -1 || l.Contains(0, "knode-a") || l.Contains(2, "knode-a") {
		t.Fatal("invalidate left stale entries")
	}
	if !l.Contains(3, "knode-b") {
		t.Fatal("invalidate removed an unrelated entry")
	}
	l.Invalidate("missing") // no-op
}

func TestAgeScanAndColdest(t *testing.T) {
	l := New[int](1, 8)
	l.Touch(0, 1)
	l.Touch(0, 2)
	ages := map[int]int{}
	for i := 0; i < 3; i++ {
		l.AgeScan(0, func(item, age int) { ages[item] = age })
	}
	if ages[1] != 3 || ages[2] != 3 {
		t.Fatalf("ages = %v", ages)
	}
	// A touch resets the age.
	l.Touch(0, 1)
	l.AgeScan(0, func(item, age int) { ages[item] = age })
	if ages[1] != 1 || ages[2] != 4 {
		t.Fatalf("ages after touch = %v", ages)
	}
	l.AgeScan(0, nil) // nil fn allowed
}

func TestClampedConstruction(t *testing.T) {
	l := New[int](0, 0)
	if l.CPUs() != 1 {
		t.Fatalf("cpus = %d", l.CPUs())
	}
	l.Touch(0, 1)
	l.Touch(0, 2)
	if l.Len(0) != 1 {
		t.Fatalf("capacity clamp failed: len=%d", l.Len(0))
	}
}
