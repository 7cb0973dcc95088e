package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark writes goes: the mpqd binary,
// program files, disk stores, trace.json. It sits at the root of the
// checkout and is git-ignored.
const buildDir = ".bench_build"

// repoRoot finds the checkout: the nearest ancestor of the working
// directory that holds cmd/mpqd. `go run -C benchmark .` starts the
// benchmark inside benchmark/, `go test` inside the package directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "mpqd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/mpqd above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// workspace is one run's scratch area under buildDir.
type workspace struct {
	root string // checkout
	dir  string // buildDir/run-<pid>, removed by close
	mpqd string // the daemon binary, kept across runs
}

// newWorkspace builds the real mpqd from the checkout's source. go build is
// always asked, so a stale binary is impossible; it is quick when nothing
// changed.
func newWorkspace() (*workspace, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	w := &workspace{root: root, mpqd: filepath.Join(root, buildDir, "mpqd")}
	// No VCS stamp: the checkout need not be a git repository, and may sit
	// inside someone else's.
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", w.mpqd, "./cmd/mpqd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building mpqd: %v\n%s", err, out)
	}
	w.dir = filepath.Join(root, buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *workspace) close() { os.RemoveAll(w.dir) }

func (w *workspace) path(name string) string { return filepath.Join(w.dir, name) }

// freshDir returns an empty directory path under the workspace: whatever an
// earlier run in this process left there (another seed's store) is removed.
func (w *workspace) freshDir(name string) (string, error) {
	p := w.path(name)
	return p, os.RemoveAll(p)
}

// writeProgram stores generated program text where mpqd can load it.
func (w *workspace) writeProgram(name, src string) (string, error) {
	p := w.path(name)
	return p, os.WriteFile(p, []byte(src), 0o644)
}

// daemon is one running mpqd -serve child.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	metrics string // host:port of /metrics, "" when not traced
	stderr  *tailBuffer
	exited  chan struct{}
	waitErr error
}

// tailBuffer keeps the last few KiB the daemon wrote to stderr, for the
// error message when it dies.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 8<<10 {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-4<<10:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// freePort asks the kernel for an unused loopback port. Another process
// can take it before mpqd binds; startDaemon retries when that happens.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon execs mpqd -serve over the program with extra flags and waits
// until it accepts connections. Simulated EDB delay is not a flag mpqd has,
// so it is zero; GOMAXPROCS is inherited. With traced set the daemon also
// gets -metrics.
func (w *workspace) startDaemon(program string, traced bool, flags []string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := w.startOnce(program, traced, flags)
		if err == nil {
			return d, nil
		}
		lastErr = err
		if !strings.Contains(err.Error(), "address already in use") {
			break
		}
	}
	return nil, lastErr
}

func (w *workspace) startOnce(program string, traced bool, flags []string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-program", program, "-serve", addr}
	d := &daemon{addr: addr, stderr: &tailBuffer{}, exited: make(chan struct{})}
	if traced {
		if d.metrics, err = freePort(); err != nil {
			return nil, err
		}
		args = append(args, "-metrics", d.metrics)
	}
	d.cmd = exec.Command(w.mpqd, append(args, flags...)...)
	d.cmd.Dir = w.dir
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.waitErr = d.cmd.Wait(); close(d.exited) }()
	// mpqd listens only after the program is loaded, so a refused dial means
	// "still loading".
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("mpqd exited before serving: %v\n%s", d.waitErr, d.stderr)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// peakRSSMB reads the child's VmHWM, its peak resident set.
func (d *daemon) peakRSSMB() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop ends the child with SIGTERM (mpqd drains and syncs its store), kills
// it if it has not gone after the drain window, and waits for it.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("mpqd ignored SIGTERM and was killed")
	}
	if d.waitErr != nil {
		return fmt.Errorf("mpqd exit: %v\n%s", d.waitErr, d.stderr)
	}
	return nil
}

// scrape reads the daemon's Prometheus counters into a flat map keyed by
// series name with its label set, e.g. `mpq_messages_total{kind="tuple"}`.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + d.metrics + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		i := bytes.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(string(line[i+1:]), 64); err == nil {
			out[string(line[:i])] = v
		}
	}
	return out, nil
}

// machine describes where the numbers were taken.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"git_revision"`
	Clients    int    `json:"clients"`
}

func machineInfo(root string) machine {
	// Ask git only about this checkout: where it is not a repository, git
	// would go looking in the directories above it.
	rev := "unknown"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			rev = strings.TrimSpace(string(out))
		}
	}
	return machine{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: rev, Clients: clients()}
}

// clients is the closed-loop connection count: load comes from one process
// with no more connections than cores.
func clients() int { return min(runtime.NumCPU(), 4) }
