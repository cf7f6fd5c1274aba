package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stallServer answers immediately except for its first `stalled`
// requests, which it holds for `stall`. It counts the connections
// clients open and the most requests it ever serves at once.
type stallServer struct {
	*httptest.Server
	seen      atomic.Int64
	opened    atomic.Int64
	mu        sync.Mutex
	active    int
	maxActive int
}

func newStallServer(t *testing.T, stalled int64, stall time.Duration) *stallServer {
	s := &stallServer{}
	s.Server = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.active++
		s.maxActive = max(s.maxActive, s.active)
		s.mu.Unlock()
		if s.seen.Add(1) <= stalled {
			time.Sleep(stall)
		}
		w.Write([]byte(`{}`))
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
	}))
	s.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			s.opened.Add(1)
		}
	}
	s.Start()
	t.Cleanup(s.Close)
	return s
}

// evenSchedule is n requests every gap.
func evenSchedule(n int, gap time.Duration) []arrival {
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{At: time.Duration(i) * gap, Kind: kindFresh, Tuple: i}
	}
	return out
}

func TestLoadgenTimesFromDueTimeThroughAStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	conns := clientConns()
	srv := newStallServer(t, int64(conns), stall)
	g := newLoadgen(srv.URL, conns, nil)
	defer g.close()
	sched := evenSchedule(50, 10*time.Millisecond)
	out := g.run(0, sched, func(arrival) []byte { return []byte(`{}`) })

	if n := srv.opened.Load(); n > int64(conns) {
		t.Errorf("generator opened %d connections, cap is %d", n, conns)
	}
	if srv.maxActive > conns {
		t.Errorf("server saw %d requests at once over %d connections", srv.maxActive, conns)
	}
	// Every connection is held by a stalled request until about `stall`,
	// so a request due at `At` in between cannot finish before then: its
	// latency, counted from when it was due, must cover the wait. A
	// generator that started its clock on send would report ~0 here.
	waited := 0
	for _, s := range out {
		if s.Err != nil || s.Code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d, %v", s.Tuple, s.Code, s.Err)
		}
		if s.At < 50*time.Millisecond || s.At > stall-50*time.Millisecond {
			continue
		}
		waited++
		if floor := stall - s.At - 30*time.Millisecond; s.Latency < floor {
			t.Errorf("request due at %v: latency %v, want at least %v", s.At, s.Latency, floor)
		}
	}
	if waited == 0 {
		t.Fatal("no request was due during the stall")
	}
	maxWait := time.Duration(0)
	for _, s := range out {
		maxWait = max(maxWait, s.ConnWait)
	}
	if maxWait < stall/3 {
		t.Errorf("longest connection wait %v; the stall should show there", maxWait)
	}
}

func TestLoadgenReportsLagWhenItFallsBehind(t *testing.T) {
	const stall = 300 * time.Millisecond
	srv := newStallServer(t, 2, stall)
	g := newLoadgen(srv.URL, 2, nil)
	defer g.close()
	g.maxInflight = 2 // both slots held by the stalled requests
	out := g.run(0, evenSchedule(20, 10*time.Millisecond), func(arrival) []byte { return []byte(`{}`) })

	maxLag := time.Duration(0)
	for _, s := range out {
		maxLag = max(maxLag, s.Lag)
		if s.Latency < s.Lag {
			t.Errorf("request due at %v: latency %v shorter than its lag %v", s.At, s.Latency, s.Lag)
		}
	}
	if maxLag < stall/2 {
		t.Errorf("max lag %v; a generator blocked for %v should report falling behind", maxLag, stall)
	}
}
