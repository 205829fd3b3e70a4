package main

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sync"
	"syscall"
	"time"
)

// repoRoot finds the module root (the directory holding go.mod) at or
// above the working directory: the checkout root under `go run
// ./benchmark`, one level up under `go test`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod at or above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// workDir is where everything the benchmark writes goes: the psid binary,
// per-run WAL directories and span files. It lies inside the checkout and
// is named in .gitignore.
func workDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildPsid compiles cmd/psid from the checkout's source. It runs before
// any set-up clock starts; with a warm build cache it is a link.
func buildPsid(root string) (string, error) {
	bin := filepath.Join(workDir(root), "psid")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/psid")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building psid: %v\n%s", err, out)
	}
	return bin, nil
}

// exitHooks are run, newest first, when the benchmark is interrupted, so
// that no psid process or WAL directory outlives it; on the normal and
// error paths the owners' defers do the same work and deregister.
var exitHooks struct {
	sync.Mutex
	fns  []func() // nil once deregistered
	done bool
}

func onExit(fn func()) (cancel func()) {
	exitHooks.Lock()
	defer exitHooks.Unlock()
	id := len(exitHooks.fns)
	exitHooks.fns = append(exitHooks.fns, fn)
	return func() {
		exitHooks.Lock()
		defer exitHooks.Unlock()
		if !exitHooks.done {
			exitHooks.fns[id] = nil
		}
	}
}

func runExitHooks() {
	exitHooks.Lock()
	fns := exitHooks.fns
	exitHooks.fns, exitHooks.done = nil, true
	exitHooks.Unlock()
	for _, fn := range slices.Backward(fns) {
		if fn != nil {
			fn()
		}
	}
}

var servingRE = regexp.MustCompile(`^psid: serving .* on (\S+:\d+) \(http (\S+:\d+)\)`)

// psid is one running server process.
type psid struct {
	cmd      *exec.Cmd
	addr     string // command listener
	http     string // probe listener
	exited   chan struct{}
	unhook   func()
	stopOnce sync.Once
}

// startPsid spawns the binary on ephemeral loopback ports with the given
// extra flags (none for the memory-only workloads: psid's defaults are the
// configuration under test), waits for its serving line and for /healthz.
func startPsid(bin string, extra ...string) (*psid, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// If the benchmark dies without running its hooks (SIGKILL), the
	// kernel takes the server down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting psid: %w", err)
	}
	p := &psid{cmd: cmd, exited: make(chan struct{})}
	p.unhook = onExit(p.stop)

	serving := make(chan []string, 1)
	go func() {
		// Reads to EOF so the child never blocks on a full pipe, then
		// reaps it.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := servingRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case serving <- m:
				default:
				}
			}
		}
		cmd.Wait()
		close(p.exited)
	}()
	select {
	case m := <-serving:
		p.addr, p.http = m[1], m[2]
	case <-p.exited:
		p.stop()
		return nil, errors.New("psid exited before its serving line")
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, errors.New("timed out waiting for the psid serving line")
	}
	if err := p.waitHealthy(10 * time.Second); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

func (p *psid) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := http.Get("http://" + p.http + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("psid /healthz not ready: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop kills the server without ceremony (SIGKILL: for the durable
// workload this is the crash) and waits until it has been reaped.
func (p *psid) stop() {
	p.stopOnce.Do(func() {
		p.cmd.Process.Kill()
		<-p.exited
		p.unhook()
	})
}

func (p *psid) pid() int { return p.cmd.Process.Pid }
