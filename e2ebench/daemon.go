package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one mdbgpd process on loopback.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{} // closed once the process has exited and been reaped
}

var servingAddr = regexp.MustCompile(`msg=serving addr=(\S+)`)

// addrWatch is the daemon's stderr: it reports the listen address from the
// "serving" log record and discards everything else.
type addrWatch struct {
	buf   []byte
	found bool
	addr  chan string // buffered: receives the address once
}

func (w *addrWatch) Write(p []byte) (int, error) {
	if w.found {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for !w.found {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			break
		}
		if m := servingAddr.FindSubmatch(w.buf[:i]); m != nil {
			w.found, w.buf = true, nil
			w.addr <- string(m[1])
		} else {
			w.buf = w.buf[i+1:]
		}
	}
	return len(p), nil
}

// startDaemon runs bin with the default flags plus extra, on an ephemeral
// loopback port, and waits until GET /readyz answers 200.
func startDaemon(bin string, extra ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, extra...)...)
	// The daemon must not outlive the benchmark, however it exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	watch := &addrWatch{addr: make(chan string, 1)}
	cmd.Stderr = watch
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-watch.addr:
		d.url = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("daemon exited before serving: %v", cmd.ProcessState)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("daemon did not announce its address within 30s")
	}
	if err := d.waitReady(30 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("daemon not ready within %v", timeout)
}

// stop terminates the daemon and waits until it has exited.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpuSeconds returns the daemon's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the line, in USER_HZ (100 on Linux) ticks.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parsing /proc stat: %w", err)
	}
	return float64(ut+st) / 100, nil
}

// peakRSSMiB returns the daemon's peak resident set size (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest) // "<n> kB"
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads the daemon's unlabeled /metrics samples.
func (d *daemon) scrape(ctx context.Context, hc *http.Client) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
