package mpq

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/edb"
)

const persistProgram = `
	edge(a, b). edge(b, c). edge(c, d). edge(b, e). edge(e, f).
	path(X, Y) :- edge(X, Y).
	path(X, Y) :- path(X, U), edge(U, Y).
	goal(Y) :- path(a, Y).
`

// diskSystem loads the program over a fresh disk store rooted in the
// test's temp dir, closing it on cleanup.
func diskSystem(t *testing.T, source string) *System {
	t.Helper()
	st, err := edb.OpenDisk(filepath.Join(t.TempDir(), "edb"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Load(source, WithStorage(st))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

// TestMemoryDiskEquivalence is the byte-identical acceptance check: the
// same program evaluated over the in-memory and disk backends must produce
// identical sorted answers across engines and strategies.
func TestMemoryDiskEquivalence(t *testing.T) {
	mem := MustLoad(persistProgram)
	disk := diskSystem(t, persistProgram)
	engines := []Engine{MessagePassing, SemiNaive, MagicSets}
	for _, eng := range engines {
		for _, strat := range []string{"greedy", "qualtree", "leftright", "stats", "auto"} {
			name := fmt.Sprintf("%s/%s", eng, strat)
			opts := []Option{WithEngine(eng), WithStrategy(strat)}
			want, err := mem.Eval(opts...)
			if err != nil {
				t.Fatalf("%s memory: %v", name, err)
			}
			got, err := disk.Eval(opts...)
			if err != nil {
				t.Fatalf("%s disk: %v", name, err)
			}
			if !reflect.DeepEqual(got.Tuples, want.Tuples) {
				t.Errorf("%s: disk %v, memory %v", name, got.Tuples, want.Tuples)
			}
		}
	}
}

// TestDiskSubscription drives the incremental-subscription path against a
// disk-backed system: the initial snapshot and every delta must match the
// in-memory behavior, with deltas flowing through ScanSince windows of the
// segment files.
func TestDiskSubscription(t *testing.T) {
	sys := diskSystem(t, persistProgram)
	pq, err := sys.Prepare(`?- path(a, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := pq.Subscription()
	if err != nil {
		t.Fatal(err)
	}
	first := subNext(t, sub)
	if len(first) != 5 { // b c d e f
		t.Fatalf("initial snapshot = %v, want 5 rows", first)
	}
	sys.AddFact("edge", "f", "g")
	delta := subNext(t, sub)
	if len(delta) != 1 || delta[0][0] != "g" {
		t.Fatalf("delta = %v, want [[g]]", delta)
	}
	sys.AddFact("edge", "z1", "z2") // irrelevant to goal: no delta row
	sys.AddFact("edge", "g", "h")
	delta = subNext(t, sub)
	if len(delta) != 1 || delta[0][0] != "h" {
		t.Fatalf("second delta = %v, want [[h]]", delta)
	}
}

// TestOpenSystemRestart is the embedding-level restart contract: a system
// reopened over the same directory recovers facts added at runtime, keeps
// EDBVersion (so plan-cache statistics epochs and result-cache keys stay
// valid), and answers a prepared query byte-identically with zero reload.
func TestOpenSystemRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")

	sys, err := OpenSystem(dir, persistProgram)
	if err != nil {
		t.Fatal(err)
	}
	sys.AddFact("edge", "f", "g") // runtime fact: lives only in the store
	pq, err := sys.Prepare(`?- path(a, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pq.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Has("g") {
		t.Fatalf("pre-restart answers missing runtime fact: %v", want.Tuples)
	}
	version := sys.EDBVersion()
	facts := sys.DB.Facts()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSystem(dir, persistProgram)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.EDBVersion() != version {
		t.Fatalf("EDBVersion after restart = %d, want %d (program replay must not re-insert)",
			re.EDBVersion(), version)
	}
	if re.DB.Facts() != facts {
		t.Fatalf("facts after restart = %d, want %d", re.DB.Facts(), facts)
	}
	rq, err := re.Prepare(`?- path(a, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rq.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Tuples, want.Tuples) {
		t.Fatalf("restart answers %v, want %v", got.Tuples, want.Tuples)
	}
	// The recovered runtime fact must also reach the bottom-up engines,
	// which read Program.Facts rather than the store.
	ms, err := re.Eval(WithEngine(MagicSets))
	if err != nil {
		t.Fatal(err)
	}
	if !ms.Has("g") {
		t.Errorf("magic-sets after restart lost the runtime fact: %v", ms.Tuples)
	}
}

// mpqdQuery dials a serving mpqd and runs one protocol exchange, returning
// the raw response lines.
func mpqdQuery(t *testing.T, addr string, lines ...string) []string {
	t.Helper()
	var conn net.Conn
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err = net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	for _, l := range lines {
		if _, err := fmt.Fprintf(conn, "%s\n", l); err != nil {
			t.Fatal(err)
		}
	}
	var out []string
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		line := sc.Text()
		out = append(out, line)
		if strings.HasPrefix(line, ". ") || strings.HasPrefix(line, "E ") ||
			strings.HasPrefix(line, "+ ") {
			break
		}
	}
	return out
}

// answerLines extracts and sorts the T lines of a protocol response, the
// byte-identical unit restart equivalence is checked on (derivation order
// varies run to run; plan=hit/miss in the terminal line varies with cache
// state).
func answerLines(resp []string) []string {
	var rows []string
	for _, l := range resp {
		if strings.HasPrefix(l, "T") {
			rows = append(rows, l)
		}
	}
	sort.Strings(rows)
	return rows
}

// TestMpqdStoreRestart is the full daemon restart e2e: mpqd -serve -store
// answers queries, accepts a fact over the wire, dies by SIGKILL, and a
// restarted daemon on the same store serves byte-identical answers —
// runtime fact included — without any data reloading.
func TestMpqdStoreRestart(t *testing.T) {
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

	start := func() (*exec.Cmd, string) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		cmd := exec.Command(bin, "-program", prog, "-serve", addr, "-store", store)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd, addr
	}

	cmd, addr := start()
	defer cmd.Process.Kill()
	before := mpqdQuery(t, addr, "?- path(a, Y).")
	if len(before) == 0 || !strings.HasPrefix(before[len(before)-1], ". ") {
		t.Fatalf("first query failed: %v", before)
	}
	if resp := mpqdQuery(t, addr, "fact edge(f, g)."); len(resp) == 0 || !strings.HasPrefix(resp[len(resp)-1], "+ 1") {
		t.Fatalf("fact line rejected: %v", resp)
	}
	after := answerLines(mpqdQuery(t, addr, "?- path(a, Y)."))
	if !contains(after, "T g") {
		t.Fatalf("answers missing wire-added fact: %v", after)
	}

	// SIGKILL: no drain, no sync — the crash the journal layout tolerates.
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	cmd2, addr2 := start()
	defer cmd2.Process.Kill()
	recovered := answerLines(mpqdQuery(t, addr2, "?- path(a, Y)."))
	if !reflect.DeepEqual(recovered, after) {
		t.Fatalf("restarted daemon answers %v, want %v", recovered, after)
	}
	cmd2.Process.Signal(syscall.SIGTERM)
	cmd2.Wait()
}

func contains(lines []string, want string) bool {
	for _, l := range lines {
		if l == want {
			return true
		}
	}
	return false
}
