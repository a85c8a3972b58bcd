package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qilabel/internal/server"
)

// target is a running qilabeld: the daemon child, or an in-process server
// in the smoke test.
type target interface {
	baseURL() string
	pid() int
	stop() error
}

// daemon is qilabeld running as a child process with default flags on a
// loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	log    *os.File
	exited chan struct{}
	err    error // Wait's result, set before exited closes
}

// startDaemon launches bin and waits until /healthz answers.
func startDaemon(bin, logPath string) (target, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// The daemon must not outlive the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting qilabeld: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logFile, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	if err := waitHealthy(d.base, d.exited, 30*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) baseURL() string { return d.base }
func (d *daemon) pid() int        { return d.cmd.Process.Pid }

// stop sends SIGTERM, waits for the drain, and kills the daemon if it
// has not exited after 20 seconds.
func (d *daemon) stop() error {
	defer d.log.Close()
	select {
	case <-d.exited:
		return fmt.Errorf("qilabeld exited early: %v", d.err)
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
		return nil
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("qilabeld did not exit on SIGTERM; killed")
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz every 2 ms until it answers 200.
func waitHealthy(base string, exited <-chan struct{}, timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-exited:
			return errors.New("qilabeld exited before answering /healthz")
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("qilabeld not healthy after %s", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// inProcess serves qilabel's handler from this process over loopback.
type inProcess struct{ srv *httptest.Server }

func startInProcess() (target, error) {
	return &inProcess{srv: httptest.NewServer(server.New(server.Config{}).Handler())}, nil
}

func (p *inProcess) baseURL() string { return p.srv.URL }
func (p *inProcess) pid() int        { return os.Getpid() }
func (p *inProcess) stop() error     { p.srv.Close(); return nil }

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the process's user plus system CPU time.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// hostTicks is the machine-wide CPU time from /proc/stat, in ticks.
type hostTicks struct{ total, steal int64 }

// hostCPU reads the aggregate cpu line of /proc/stat: user, nice, system,
// idle, iowait, irq, softirq, steal, ...
func hostCPU() (hostTicks, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}, errors.New("unexpected /proc/stat")
	}
	var t hostTicks
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return hostTicks{}, err
		}
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t, nil
}

// procPeakRSS returns VmHWM, the process's peak resident set, in MB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// serverMetrics is the part of /metrics the per-layer ratios diff.
type serverMetrics struct {
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
	} `json:"cache"`
	Warm struct {
		LabelHits       int64 `json:"labelHits"`
		LabelMisses     int64 `json:"labelMisses"`
		VerdictHits     int64 `json:"verdictHits"`
		VerdictMisses   int64 `json:"verdictMisses"`
		SolveHits       int64 `json:"solveHits"`
		SolveMisses     int64 `json:"solveMisses"`
		NodeHits        int64 `json:"nodeHits"`
		NodeMisses      int64 `json:"nodeMisses"`
		MatchKeyHits    int64 `json:"matchKeyHits"`
		MatchKeyMisses  int64 `json:"matchKeyMisses"`
		MatchPairHits   int64 `json:"matchPairHits"`
		MatchPairMisses int64 `json:"matchPairMisses"`
		SourceHits      int64 `json:"sourceHits"`
		SourceMisses    int64 `json:"sourceMisses"`
	} `json:"warm"`
	Sessions struct {
		Reused     int64 `json:"reusedComponents"`
		Recomputed int64 `json:"recomputedComponents"`
	} `json:"sessions"`
	Discovery struct {
		Created int64 `json:"created"`
		Merged  int64 `json:"merged"`
	} `json:"discovery"`
}

func scrapeMetrics(t transport) (serverMetrics, error) {
	var m serverMetrics
	st, data, err := t.do("GET", "/metrics", nil)
	if err != nil {
		return m, fmt.Errorf("reading /metrics: %w", err)
	}
	if st != http.StatusOK {
		return m, fmt.Errorf("reading /metrics: status %d", st)
	}
	return m, json.Unmarshal(data, &m)
}
