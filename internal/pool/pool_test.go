package pool

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 100
		hits := make([]atomic.Int32, n)
		err := ForEach(context.Background(), workers, n, func(_, i int) {
			hits[i].Add(1)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachSerialRunsInOrder(t *testing.T) {
	var order []int
	err := ForEach(context.Background(), 1, 10, func(w, i int) {
		if w != 0 {
			t.Fatalf("serial worker id = %d", w)
		}
		order = append(order, i)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if i != v {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

func TestForEachWorkerIDsBounded(t *testing.T) {
	const workers = 4
	err := ForEach(context.Background(), workers, 200, func(w, _ int) {
		if w < 0 || w >= workers {
			t.Errorf("worker id %d out of range", w)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForEachCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	err := ForEach(ctx, 4, 10, func(_, _ int) { ran++ })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("%d units ran under a canceled context", ran)
	}
}

func TestForEachStopsPromptlyOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- ForEach(ctx, 2, 1_000_000, func(_, _ int) {
			ran.Add(1)
			time.Sleep(100 * time.Microsecond)
		})
	}()
	for ran.Load() == 0 {
		runtime.Gosched()
	}
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach did not return after cancel")
	}
	if ran.Load() >= 1_000_000 {
		t.Fatal("cancellation did not skip any work")
	}
}

// TestForEachSerialThreshold pins the no-spawn fast path: below
// SerialThreshold every unit runs on the calling goroutine (worker 0, index
// order), at and above the threshold the parallel path still covers every
// index exactly once. The boundary cases n = 0, 1, threshold-1, threshold
// and threshold+1 are all exercised.
func TestForEachSerialThreshold(t *testing.T) {
	for _, n := range []int{0, 1, SerialThreshold - 1} {
		var order []int
		base := goroutineID()
		err := ForEach(context.Background(), 4, n, func(w, i int) {
			if w != 0 {
				t.Fatalf("n=%d below threshold: worker id = %d, want 0", n, w)
			}
			if goroutineID() != base {
				t.Fatalf("n=%d below threshold: unit %d ran off the calling goroutine", n, i)
			}
			order = append(order, i)
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(order) != n {
			t.Fatalf("n=%d: ran %d units", n, len(order))
		}
		for i, v := range order {
			if i != v {
				t.Fatalf("n=%d: serial order broken: %v", n, order)
			}
		}
	}
	for _, n := range []int{SerialThreshold, SerialThreshold + 1, 3 * SerialThreshold} {
		hits := make([]atomic.Int32, n)
		err := ForEach(context.Background(), 4, n, func(_, i int) {
			hits[i].Add(1)
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, got)
			}
		}
	}
}

// goroutineID parses the current goroutine's ID out of the runtime.Stack
// header ("goroutine N [running]:"), the standard test trick for asserting
// that a fast path never hops goroutines.
func goroutineID() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	fields := strings.Fields(string(buf))
	if len(fields) < 2 {
		return 0
	}
	id, _ := strconv.ParseUint(fields[1], 10, 64)
	return id
}

func TestForEachZeroUnits(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(_, _ int) {
		t.Fatal("fn called for n=0")
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-3) != runtime.GOMAXPROCS(0) {
		t.Fatal("zero/negative parallelism should select GOMAXPROCS")
	}
	if Workers(5) != 5 {
		t.Fatal("explicit parallelism not honored")
	}
}

// TestForEachRepanicsOnCaller: a unit panicking on a worker goroutine
// re-panics on ForEach's caller, once every worker has returned, with the
// value and the worker's stack; the other workers stop claiming units.
func TestForEachRepanicsOnCaller(t *testing.T) {
	const n = 1000
	var ran, running atomic.Int32
	caller := goroutineID()
	var got any
	func() {
		defer func() { got = recover() }()
		ForEach(context.Background(), 4, n, func(_, i int) {
			running.Add(1)
			defer running.Add(-1)
			ran.Add(1)
			if i == 100 {
				if goroutineID() == caller {
					t.Error("the unit ran on the caller's goroutine")
				}
				panic("unit 100 failed")
			}
		})
	}()
	p, ok := got.(*Panic)
	if !ok {
		t.Fatalf("recovered %#v, want a *Panic", got)
	}
	if p.Value != "unit 100 failed" || !strings.Contains(string(p.Stack), "TestForEachRepanicsOnCaller") {
		t.Fatalf("panic value %v with stack\n%s", p.Value, p.Stack)
	}
	if !strings.Contains(p.Error(), "unit 100 failed") {
		t.Errorf("Error() = %q", p.Error())
	}
	if running.Load() != 0 {
		t.Error("ForEach returned while units were still running")
	}
	if ran.Load() == n {
		t.Error("the workers ran every unit after one panicked")
	}

	// A serial run panics with the unit's own value, on the caller.
	func() {
		defer func() { got = recover() }()
		ForEach(context.Background(), 1, 3, func(_, i int) { panic(i) })
	}()
	if got != 0 {
		t.Fatalf("serial run recovered %#v, want the unit's value 0", got)
	}
}
