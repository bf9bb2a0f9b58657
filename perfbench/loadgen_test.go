package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// With one sender and three requests all due at once, each request waits
// for the ones before it: its lateness is the queue ahead of it and its
// latency, counted from the due time, includes that wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 30 * time.Millisecond
	due := []time.Duration{0, 0, 0}
	var calls atomic.Int32
	got := openLoop(context.Background(), due, 1, func(int) {
		calls.Add(1)
		time.Sleep(service)
	})
	if calls.Load() != 3 {
		t.Fatalf("send called %d times, want 3", calls.Load())
	}
	for i, tm := range got {
		if floor := time.Duration(i+1) * service; tm.lat < floor {
			t.Errorf("request %d latency %v, want at least %v (measured from due time)", i, tm.lat, floor)
		}
		if floor := time.Duration(i) * service; tm.late < floor {
			t.Errorf("request %d lateness %v, want at least %v", i, tm.late, floor)
		}
	}
}

// A request due after the sender has gone idle is sent on time: its
// lateness stays small and its latency is its own service time.
func TestOpenLoopIdleSenderIsNotLate(t *testing.T) {
	due := []time.Duration{0, 80 * time.Millisecond}
	got := openLoop(context.Background(), due, 1, func(int) { time.Sleep(10 * time.Millisecond) })
	if got[1].late > 40*time.Millisecond {
		t.Errorf("idle sender ran %v late", got[1].late)
	}
	if got[1].lat > 60*time.Millisecond {
		t.Errorf("latency %v includes time before the request was due", got[1].lat)
	}
}

func TestEvenDueSpacesArrivalsWithinWindow(t *testing.T) {
	due := evenDue(4, 1200*time.Millisecond)
	want := []time.Duration{0, 250 * time.Millisecond, 500 * time.Millisecond, 750 * time.Millisecond, time.Second}
	if len(due) != len(want) {
		t.Fatalf("evenDue = %v, want %v", due, want)
	}
	for i := range want {
		if due[i] != want[i] {
			t.Errorf("arrival %d at %v, want %v", i, due[i], want[i])
		}
	}
}

// A dropped connection (a handler panic, which net/http answers by closing
// the connection) and a 5xx both count as failed requests, not as refusals,
// and neither aborts the caller.
func TestCheckCountsDroppedConnectionsAnd5xxAsFailures(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/panic/v1/simulate", func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) })
	mux.HandleFunc("/500/v1/simulate", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusInternalServerError) })
	mux.HandleFunc("/429/v1/simulate", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusTooManyRequests) })
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()
	c := &serveCase{status: http.StatusOK}
	for _, path := range []string{"/panic", "/500"} {
		ok, rejected, why := check(c, post(client, srv.URL+path, []byte("{}")))
		if ok || rejected || why == "" {
			t.Errorf("%s: ok=%v rejected=%v why=%q, want a failure", path, ok, rejected, why)
		}
	}
	if ok, rejected, _ := check(c, post(client, srv.URL+"/429", []byte("{}"))); ok || !rejected {
		t.Errorf("429: ok=%v rejected=%v, want a refusal", ok, rejected)
	}
}
