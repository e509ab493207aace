package coalesce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fvp/internal/telemetry"
)

// recorder is a Call that answers item*10 per item and logs each call's
// items. fail, when set, refuses any call containing that item.
type recorder struct {
	mu    sync.Mutex
	calls [][]int
	fail  int
}

var errRefused = errors.New("refused")

func (r *recorder) call(_ context.Context, items []int) ([]int, error) {
	r.mu.Lock()
	r.calls = append(r.calls, append([]int(nil), items...))
	r.mu.Unlock()
	out := make([]int, len(items))
	for i, v := range items {
		if r.fail != 0 && v == r.fail {
			return nil, errRefused
		}
		out[i] = v * 10
	}
	return out, nil
}

func (r *recorder) nCalls() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.calls)
}

// ride runs one Do per group concurrently and returns each group's
// outcome.
func ride(c *Coalescer[int, int], groups [][]int) ([][]int, []error) {
	res := make([][]int, len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for i, g := range groups {
		wg.Add(1)
		go func(i int, g []int) {
			defer wg.Done()
			res[i], errs[i] = c.Do(context.Background(), g)
		}(i, g)
	}
	wg.Wait()
	return res, errs
}

func wantShares(t *testing.T, groups, res [][]int, errs []error) {
	t.Helper()
	for i, g := range groups {
		if errs[i] != nil {
			t.Errorf("group %d: %v", i, errs[i])
			continue
		}
		if want := fmt.Sprint(scaled(g)); fmt.Sprint(res[i]) != want {
			t.Errorf("group %d got %v, want %s", i, res[i], want)
		}
	}
}

func scaled(items []int) []int {
	out := make([]int, len(items))
	for i, v := range items {
		out[i] = v * 10
	}
	return out
}

func waitPending(t *testing.T, c *Coalescer[int, int], n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Pending() != n {
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d, want %d", c.Pending(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMaxFlushMakesOneMergedCall: groups reaching Max within a window
// nobody waits out flush as one call, recorded as one flush of that
// many items, and each group gets its own slice back.
func TestMaxFlushMakesOneMergedCall(t *testing.T) {
	rec := &recorder{}
	c := &Coalescer[int, int]{Window: time.Hour, Max: 5, Call: rec.call, Sizes: telemetry.NewSizes()}
	groups := [][]int{{1}, {2, 3}, {4}, {5}}
	res, errs := ride(c, groups)
	wantShares(t, groups, res, errs)
	if n := rec.nCalls(); n != 1 {
		t.Fatalf("%d calls, want one merged call", n)
	}
	if len(rec.calls[0]) != 5 {
		t.Errorf("merged call carried %v, want all 5 items", rec.calls[0])
	}
	if snap := c.Sizes.Snapshot(); snap.Count != 1 || snap.Sum != 5 {
		t.Errorf("sizes: %d flushes of %g items, want one of 5", snap.Count, snap.Sum)
	}
}

// TestTimerFlushAfterWindow: with Max out of reach, the timer flushes
// the window, no sooner than Window after the first arrival.
func TestTimerFlushAfterWindow(t *testing.T) {
	const window = 30 * time.Millisecond
	rec := &recorder{}
	c := &Coalescer[int, int]{Window: window, Max: 100, Call: rec.call}
	start := time.Now()
	groups := [][]int{{1}, {2}, {3}}
	res, errs := ride(c, groups)
	if d := time.Since(start); d < window {
		t.Errorf("flushed after %s, before the %s window", d, window)
	}
	wantShares(t, groups, res, errs)
	if n := rec.nCalls(); n < 1 || n > len(groups) {
		t.Errorf("%d calls for %d groups", n, len(groups))
	}
}

// TestCanceledRiderDoesNotBlockFlush: a rider that stops waiting gets
// its ctx error; the flush still completes and the others' shares are
// unchanged.
func TestCanceledRiderDoesNotBlockFlush(t *testing.T) {
	rec := &recorder{}
	c := &Coalescer[int, int]{Window: time.Hour, Max: 3, Call: rec.call}
	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, []int{7})
		canceled <- err
	}()
	waitPending(t, c, 1)
	cancel()
	if err := <-canceled; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled rider returned %v, want context.Canceled", err)
	}

	groups := [][]int{{8}, {9}}
	res, errs := ride(c, groups)
	wantShares(t, groups, res, errs)
	if n := rec.nCalls(); n != 1 || len(rec.calls[0]) != 3 {
		t.Errorf("calls %v, want one merged call carrying the canceled rider's item too", rec.calls)
	}
}

// TestSplitOnlyWhenPredicateSays: a refused merged call is re-run per
// group when Split accepts the error, so only the poisoned group fails;
// when Split rejects it, every rider gets the merged error.
func TestSplitOnlyWhenPredicateSays(t *testing.T) {
	groups := [][]int{{1}, {2}, {3}}
	for _, split := range []bool{true, false} {
		rec := &recorder{fail: 2}
		c := &Coalescer[int, int]{
			Window: time.Hour, Max: 3, Call: rec.call,
			Split: func(err error) bool { return split && errors.Is(err, errRefused) },
		}
		res, errs := ride(c, groups)
		for i, g := range groups {
			switch {
			case g[0] == 2 || !split:
				if !errors.Is(errs[i], errRefused) {
					t.Errorf("split=%v group %v: err %v, want the refusal", split, g, errs[i])
				}
			case errs[i] != nil || fmt.Sprint(res[i]) != fmt.Sprint(scaled(g)):
				t.Errorf("split=%v group %v: got %v, %v", split, g, res[i], errs[i])
			}
		}
		want := 1
		if split {
			want += len(groups)
		}
		if n := rec.nCalls(); n != want {
			t.Errorf("split=%v: %d calls, want %d", split, n, want)
		}
	}
}

// TestCloseFlushesThenGoesDirect: Close releases parked groups with one
// flush; afterwards every Do is its own call, without waiting.
func TestCloseFlushesThenGoesDirect(t *testing.T) {
	rec := &recorder{}
	c := &Coalescer[int, int]{Window: time.Hour, Max: 100, Call: rec.call}
	groups := [][]int{{1}, {2}}
	var (
		res  [][]int
		errs []error
		done = make(chan struct{})
	)
	go func() {
		res, errs = ride(c, groups)
		close(done)
	}()
	waitPending(t, c, 2)
	c.Close()
	<-done
	wantShares(t, groups, res, errs)
	if n := rec.nCalls(); n != 1 {
		t.Fatalf("%d calls at Close, want one flush", n)
	}

	got, err := c.Do(context.Background(), []int{4})
	if err != nil || fmt.Sprint(got) != "[40]" {
		t.Fatalf("Do after Close: %v, %v", got, err)
	}
	if n := rec.nCalls(); n != 2 || c.Pending() != 0 {
		t.Errorf("Do after Close parked (calls %d, pending %d), want a direct call", n, c.Pending())
	}
}

// TestZeroWindowCallsThrough: with no window every Do is one direct
// call on the caller's ctx, and nothing is recorded as a flush.
func TestZeroWindowCallsThrough(t *testing.T) {
	type key struct{}
	var seen []any
	c := &Coalescer[int, int]{
		Max: 1,
		Call: func(ctx context.Context, items []int) ([]int, error) {
			seen = append(seen, ctx.Value(key{}))
			return scaled(items), nil
		},
		Sizes: telemetry.NewSizes(),
	}
	ctx := context.WithValue(context.Background(), key{}, "caller")
	for i := 1; i <= 2; i++ {
		got, err := c.Do(ctx, []int{i})
		if err != nil || fmt.Sprint(got) != fmt.Sprint(scaled([]int{i})) {
			t.Fatalf("Do(%d): %v, %v", i, got, err)
		}
	}
	if fmt.Sprint(seen) != "[caller caller]" {
		t.Errorf("calls saw contexts %v, want the caller's each time", seen)
	}
	if snap := c.Sizes.Snapshot(); snap.Count != 0 {
		t.Errorf("%d flushes recorded for direct calls", snap.Count)
	}
}

// TestShortAnswerIsAnError: a Call that returns the wrong number of
// results fails every rider instead of misaligning their shares.
func TestShortAnswerIsAnError(t *testing.T) {
	c := &Coalescer[int, int]{
		Window: time.Hour, Max: 2,
		Call: func(_ context.Context, items []int) ([]int, error) { return []int{0}, nil },
	}
	_, errs := ride(c, [][]int{{1}, {2}})
	for i, err := range errs {
		if err == nil {
			t.Errorf("group %d: no error for a short answer", i)
		}
	}
}
