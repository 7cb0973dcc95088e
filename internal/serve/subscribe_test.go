package serve

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// readRound reads one subscription round off conn: T lines up to and
// including the "~ <n> v=<version>" frame. A 30-second read deadline
// guards against a broken wake-up hanging the test.
func readRound(t *testing.T, conn net.Conn, sc *bufio.Scanner) ([]string, uint64) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	var tuples []string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "T" || strings.HasPrefix(line, "T "):
			tuples = append(tuples, strings.TrimPrefix(strings.TrimPrefix(line, "T"), " "))
		case strings.HasPrefix(line, "~ "):
			var n int
			var v uint64
			if _, err := fmt.Sscanf(line, "~ %d v=%d", &n, &v); err != nil {
				t.Fatalf("bad frame %q: %v", line, err)
			}
			if n != len(tuples) {
				t.Fatalf("frame says %d tuples, saw %d", n, len(tuples))
			}
			return tuples, v
		case strings.HasPrefix(line, "E "):
			t.Fatalf("subscription error: %s", strings.TrimPrefix(line, "E "))
		default:
			t.Fatalf("malformed line %q", line)
		}
	}
	t.Fatalf("connection closed mid-round: %v", sc.Err())
	return nil, 0
}

func TestServeSubscribe(t *testing.T) {
	srv, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	fmt.Fprintf(conn, "subscribe ?- path(a, Y).\n")

	tuples, v0 := readRound(t, conn, sc)
	sort.Strings(tuples)
	if !reflect.DeepEqual(tuples, wants["a"]) {
		t.Fatalf("initial round = %v, want %v", tuples, wants["a"])
	}

	// A mutation on a predicate the plan never reads produces no frame;
	// the next relevant fact's delta arrives alone.
	srv.sys.AddFact("unrelated", "q", "r")
	srv.sys.AddFact("edge", "d", "e")
	tuples, v1 := readRound(t, conn, sc)
	if !reflect.DeepEqual(tuples, []string{"e"}) {
		t.Fatalf("delta round = %v, want [e]", tuples)
	}
	if v1 <= v0 {
		t.Errorf("frame versions did not advance: %d then %d", v0, v1)
	}

	// "quit" ends the subscription; the server closes the connection.
	fmt.Fprintf(conn, "quit\n")
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	if sc.Scan() {
		t.Fatalf("after quit, got line %q, want EOF", sc.Text())
	}
}

func TestServeSubscribeBadQuery(t *testing.T) {
	_, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	fmt.Fprintf(conn, "subscribe ?- path(X Y).\n")
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "E ") {
		t.Fatalf("bad subscribe got %q, want E line", sc.Text())
	}
}

func TestServeSubscribeShutdown(t *testing.T) {
	srv, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	fmt.Fprintf(conn, "subscribe ?- path(a, Y).\n")
	readRound(t, conn, sc)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go srv.Shutdown(ctx)

	// The blocked subscription is aborted: the client sees the shutdown E
	// line, or bare EOF if the connection teardown wins the race.
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	if sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "E ") {
			t.Fatalf("during shutdown got %q, want E line or EOF", line)
		}
	}
}

// TestServeFactDirective exercises the wire mutation path: a fact line
// adds to the EDB (replying whether it was new and at what version), and
// a later query on the same connection sees the grown answer set.
func TestServeFactDirective(t *testing.T) {
	_, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)

	send := func(line string) string {
		t.Helper()
		fmt.Fprintf(conn, "%s\n", line)
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		if !sc.Scan() {
			t.Fatalf("no reply to %q: %v", line, sc.Err())
		}
		return sc.Text()
	}
	if reply := send("fact edge(d, e)."); !strings.HasPrefix(reply, "+ 1 v=") {
		t.Fatalf("new fact reply = %q, want + 1 v=...", reply)
	}
	if reply := send("fact edge(d, e)."); !strings.HasPrefix(reply, "+ 0 v=") {
		t.Fatalf("duplicate fact reply = %q, want + 0 v=...", reply)
	}
	if reply := send("fact edge(d, E)."); !strings.HasPrefix(reply, "E ") {
		t.Fatalf("non-ground fact reply = %q, want E line", reply)
	}
	if reply := send("fact edge(d e)."); !strings.HasPrefix(reply, "E ") {
		t.Fatalf("malformed fact reply = %q, want E line", reply)
	}
	tuples, _, err := query(t, conn, sc, "?- path(a, Y).")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(tuples)
	want := []string{"a", "b", "c", "d", "e"}
	if !reflect.DeepEqual(tuples, want) {
		t.Fatalf("query after fact = %v, want %v", tuples, want)
	}
}

// TestServeSubscribeCacheFreshness pins the mutation/wake ordering end to
// end: AddFact bumps the EDB version (which every result-cache hit
// compares with its view's) before waking subscribers, so once a
// subscriber has seen a delta frame, a query on another connection can
// never be served a stale cached answer set.
func TestServeSubscribeCacheFreshness(t *testing.T) {
	srv, addr := startServer(t, Config{})
	subConn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer subConn.Close()
	subSc := bufio.NewScanner(subConn)
	fmt.Fprintf(subConn, "subscribe ?- path(a, Y).\n")
	readRound(t, subConn, subSc)

	qConn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer qConn.Close()
	qSc := bufio.NewScanner(qConn)
	if _, _, err := query(t, qConn, qSc, "?- path(a, Y)."); err != nil {
		t.Fatal(err) // populates the result cache at the current version
	}

	srv.sys.AddFact("edge", "d", "e")
	if tuples, _ := readRound(t, subConn, subSc); !reflect.DeepEqual(tuples, []string{"e"}) {
		t.Fatalf("delta round = %v, want [e]", tuples)
	}
	// The subscriber has the delta, so the version moved before the wake:
	// this hit must bring its view forward and see the new answer.
	tuples, _, err := query(t, qConn, qSc, "?- path(a, Y).")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(tuples)
	want := []string{"a", "b", "c", "d", "e"}
	if !reflect.DeepEqual(tuples, want) {
		t.Fatalf("query after delta frame = %v, want %v (stale cache?)", tuples, want)
	}
}

// TestServeSubscribeSoak is the subscription acceptance soak, run under
// -race by scripts/check.sh: several live subscriptions on one server
// while a writer grows the EDB fact by fact. Every subscriber must
// receive exactly the answers a fresh evaluation of the grown program
// derives — no tuple lost, none delivered twice. Mutations and delta
// rounds serialize on the System's mutation lock, which is exactly the
// interleaving the -race run vets.
func TestServeSubscribeSoak(t *testing.T) {
	_, addr := startServer(t, Config{})
	const grow = 15 // writer appends d -> e0 -> e1 -> ... -> e14

	// Reachability in testProgram once the chain is fully grown.
	chain := make([]string, grow)
	for i := range chain {
		chain[i] = fmt.Sprintf("e%d", i)
	}
	fromA := append(append([]string{}, wants["a"]...), chain...)
	sort.Strings(fromA)
	subs := []struct {
		src  string
		want []string
	}{
		{"?- path(a, Y).", fromA},
		{"?- path(b, Y).", fromA}, // a and b are on one cycle
		{"?- path(x, Y).", wants["x"]},
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(subs))
	for _, sub := range subs {
		wg.Add(1)
		go func(src string, want []string) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			fmt.Fprintf(conn, "tenant %s\nsubscribe %s\n", src[3:7], src)
			got := make(map[string]bool)
			for len(got) < len(want) {
				tuples, _ := readRound(t, conn, sc)
				for _, tup := range tuples {
					if got[tup] {
						errs <- fmt.Errorf("%s: tuple %q delivered twice", src, tup)
						return
					}
					got[tup] = true
				}
			}
			for _, tup := range want {
				if !got[tup] {
					errs <- fmt.Errorf("%s: tuple %q never delivered", src, tup)
					return
				}
			}
			if len(got) != len(want) {
				errs <- fmt.Errorf("%s: delivered %d tuples, want %d", src, len(got), len(want))
			}
			fmt.Fprintf(conn, "quit\n")
		}(sub.src, sub.want)
	}

	// The writer is itself a line-protocol client: facts enter over the
	// wire exactly as a remote producer would send them.
	wConn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wConn.Close()
	wSc := bufio.NewScanner(wConn)
	prev := "d"
	for _, next := range chain {
		fmt.Fprintf(wConn, "fact edge(%s, %s).\n", prev, next)
		wConn.SetReadDeadline(time.Now().Add(30 * time.Second))
		if !wSc.Scan() || !strings.HasPrefix(wSc.Text(), "+ 1") {
			t.Fatalf("fact reply = %q, want + 1", wSc.Text())
		}
		prev = next
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
