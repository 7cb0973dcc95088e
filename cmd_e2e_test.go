package mpq

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCommandsEndToEnd builds the actual binaries and drives them the way a
// user would: mpq on a program file with a data file, rgg regenerating
// Figure 1, qualtree analyzing the paper's rules, bench in quick mode, and
// an mpqd pair cooperating over TCP.
func TestCommandsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e CLI test skipped in -short mode")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"mpq", "rgg", "qualtree", "mpqd"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}

	dir := t.TempDir()
	prog := filepath.Join(dir, "q.dl")
	if err := os.WriteFile(prog, []byte(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		?- path(a, Y).
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(dir, "edges.csv")
	if err := os.WriteFile(data, []byte("a,b\nb,c\nx,y\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	t.Run("mpq", func(t *testing.T) {
		for _, engine := range []string{"message-passing", "semi-naive", "magic-sets"} {
			out, err := exec.Command(filepath.Join(bin, "mpq"),
				"-engine", engine, "-data", "edge="+data, prog).CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", engine, err, out)
			}
			s := string(out)
			if !strings.Contains(s, "b") || !strings.Contains(s, "c") || strings.Contains(s, "y\n") {
				t.Errorf("%s answers wrong:\n%s", engine, s)
			}
		}
	})

	// -trace, -trace-out and -profile arm one profile and render it after
	// the evaluation: the text trace and the report on stderr, the
	// trace_event JSON in the named file.
	t.Run("mpq-observe", func(t *testing.T) {
		events := filepath.Join(dir, "events.json")
		cmd := exec.Command(filepath.Join(bin, "mpq"), "-trace", "-profile", "-trace-out", events,
			"-data", "edge="+data, prog)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v\n%s", err, stderr.String())
		}
		if got := stdout.String(); got != "b\nc\n" {
			t.Errorf("answers = %q, want \"b\\nc\\n\"", got)
		}
		errOut := stderr.String()
		for _, kind := range []string{"relreq", "tupreq", "tuple(batch)?", "end", "reqend"} {
			if !regexp.MustCompile(`(?m)µs  #\d+ ← #\d+  ` + kind + `( rows=\d+)?$`).MatchString(errOut) {
				t.Errorf("-trace shows no handled %s message:\n%s", kind, errOut)
			}
		}
		if !regexp.MustCompile(`(?m)µs  #\d+ round \d+$`).MatchString(errOut) {
			t.Errorf("-trace shows no round line:\n%s", errOut)
		}
		if !strings.Contains(errOut, "query profile:") {
			t.Errorf("-profile printed no report:\n%s", errOut)
		}
		phases := traceEventPhases(t, events)
		if phases["X"] == 0 || phases["i"] == 0 {
			t.Errorf("-trace-out phases = %v, want X spans and i round marks", phases)
		}
	})

	// A timed-out evaluation still writes its -trace-out file, then exits 1.
	t.Run("mpq-timeout-trace", func(t *testing.T) {
		events := filepath.Join(dir, "timeout.json")
		out, err := exec.Command(filepath.Join(bin, "mpq"), "-timeout", "1ns", "-trace-out", events,
			"-data", "edge="+data, prog).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "deadline exceeded") {
			t.Fatalf("mpq -timeout 1ns: err = %v, want exit status 1 on the deadline\n%s", err, out)
		}
		if phases := traceEventPhases(t, events); phases["M"] == 0 {
			t.Errorf("-trace-out after a timeout names no nodes: %v", phases)
		}
	})

	t.Run("rgg", func(t *testing.T) {
		out, err := exec.Command(filepath.Join(bin, "rgg"), "-p1").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, want := range []string{"--cycle-->", "leader", "p(aᶜ"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("rgg -p1 missing %q:\n%s", want, out)
			}
		}
		dot, err := exec.Command(filepath.Join(bin, "rgg"), "-p1", "-dot").CombinedOutput()
		if err != nil || !strings.Contains(string(dot), "digraph") {
			t.Errorf("rgg -dot failed: %v\n%s", err, dot)
		}
	})

	t.Run("qualtree", func(t *testing.T) {
		out, err := exec.Command(filepath.Join(bin, "qualtree"), "-example41").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(string(out), "MONOTONE FLOW") ||
			!strings.Contains(string(out), "lacks the monotone flow") {
			t.Errorf("qualtree -example41 output wrong:\n%s", out)
		}
		fig5, err := exec.Command(filepath.Join(bin, "qualtree"), "-fig5").CombinedOutput()
		if err != nil || !strings.Contains(string(fig5), "property holds") {
			t.Errorf("qualtree -fig5 failed: %v\n%s", err, fig5)
		}
	})

	t.Run("mpqd", func(t *testing.T) {
		distProg := filepath.Join(dir, "dist.dl")
		if err := os.WriteFile(distProg, []byte(`
			edge(a, b). edge(b, c).
			path(X, Y) :- edge(X, Y).
			path(X, Y) :- path(X, U), edge(U, Y).
			goal(Y) :- path(a, Y).
		`), 0o644); err != nil {
			t.Fatal(err)
		}
		addrs := "127.0.0.1:7911,127.0.0.1:7912"
		site1 := exec.Command(filepath.Join(bin, "mpqd"), "-program", distProg, "-site", "1", "-addrs", addrs)
		if err := site1.Start(); err != nil {
			t.Fatal(err)
		}
		defer site1.Process.Kill()
		out, err := exec.Command(filepath.Join(bin, "mpqd"),
			"-program", distProg, "-site", "0", "-addrs", addrs).CombinedOutput()
		if err != nil {
			t.Fatalf("driver site: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "b") || !strings.Contains(string(out), "c") {
			t.Errorf("mpqd answers wrong:\n%s", out)
		}
		site1.Wait()
	})

	// The TCP transport's replay needs heartbeat acknowledgements, so a
	// non-positive interval is a usage error, not a quieter transport.
	t.Run("mpqd-heartbeat-zero", func(t *testing.T) {
		out, err := exec.Command(filepath.Join(bin, "mpqd"), "-heartbeat", "0",
			"-program", "unused.dl", "-site", "0", "-addrs", "127.0.0.1:7914,127.0.0.1:7915").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("mpqd -heartbeat 0: err = %v, want exit status 2\n%s", err, out)
		}
		if !strings.Contains(string(out), "usage: mpqd") {
			t.Errorf("mpqd -heartbeat 0 printed no usage line:\n%s", out)
		}
	})

	t.Run("serve", func(t *testing.T) {
		servProg := filepath.Join(dir, "serve.dl")
		if err := os.WriteFile(servProg, []byte(`
			edge(a, b). edge(b, c). edge(x, y).
			path(X, Y) :- edge(X, Y).
			path(X, Y) :- path(X, U), edge(U, Y).
			goal(Y) :- path(a, Y).
		`), 0o644); err != nil {
			t.Fatal(err)
		}
		addr := "127.0.0.1:7913"
		daemon := exec.Command(filepath.Join(bin, "mpqd"), "-program", servProg, "-serve", addr)
		if err := daemon.Start(); err != nil {
			t.Fatal(err)
		}
		defer daemon.Process.Kill()

		// The daemon needs a moment to listen; retry until it accepts.
		var out []byte
		var err error
		for i := 0; i < 50; i++ {
			out, err = exec.Command(filepath.Join(bin, "mpq"),
				"-connect", addr, "?- path(a, Y).", "?- path(x, Y).").CombinedOutput()
			if err == nil {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("mpq -connect: %v\n%s", err, out)
		}
		if got := string(out); got != "b\nc\ny\n" {
			t.Errorf("mpq -connect answers = %q, want \"b\\nc\\ny\\n\"", got)
		}
	})
}

// traceEventPhases parses a trace_event JSON file and counts its events
// by phase ("M" metadata, "X" spans, "i" instants).
func traceEventPhases(t *testing.T, path string) map[string]int {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &file); err != nil {
		t.Fatalf("%s is not trace_event JSON: %v", path, err)
	}
	phases := map[string]int{}
	for _, e := range file.TraceEvents {
		phases[e.Phase]++
	}
	return phases
}

// TestMpqdSigtermAtStartup closes the start-up signal window of mpqd
// -serve: a SIGTERM sent the moment the port accepts must find the handler
// installed, so the daemon drains, syncs its store and exits 0 — and every
// fact it acknowledged before the signal is in the store on reopen.
func TestMpqdSigtermAtStartup(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e daemon test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "mpqd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/mpqd").CombinedOutput(); err != nil {
		t.Fatalf("building mpqd: %v\n%s", err, out)
	}
	dir := t.TempDir()
	prog := filepath.Join(dir, "q.dl")
	if err := os.WriteFile(prog, []byte(persistProgram+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "store")
	var acked []string
	for round := 0; round < 6; round++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		cmd := exec.Command(bin, "-program", prog, "-serve", addr, "-store", store)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		var conn net.Conn
		for deadline := time.Now().Add(10 * time.Second); ; {
			if conn, err = net.Dial("tcp", addr); err == nil {
				break
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				t.Fatalf("round %d: port never accepted: %v\n%s", round, err, stderr.String())
			}
			time.Sleep(200 * time.Microsecond)
		}
		// Odd rounds get a fact acknowledged first; even rounds signal at once.
		if round%2 == 1 {
			node := fmt.Sprintf("s%d", round)
			fmt.Fprintf(conn, "fact edge(%s, t).\n", node)
			buf := make([]byte, 64)
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if n, err := conn.Read(buf); err != nil || !strings.HasPrefix(string(buf[:n]), "+ 1") {
				cmd.Process.Kill()
				t.Fatalf("round %d: fact not acknowledged: %q %v", round, buf[:n], err)
			}
			acked = append(acked, node)
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		if err := cmd.Wait(); err != nil {
			t.Fatalf("round %d: mpqd did not exit 0 on SIGTERM at start-up: %v\n%s", round, err, stderr.String())
		}
	}
	sys, err := OpenSystem(store, persistProgram)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, node := range acked {
		ans, err := sys.Query(context.Background(), fmt.Sprintf("?- edge(%s, Y).", node))
		if err != nil {
			t.Fatal(err)
		}
		if !ans.Has("t") {
			t.Errorf("acknowledged fact edge(%s, t) is missing after reopen", node)
		}
	}
}
