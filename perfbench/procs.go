package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one serving process the benchmark started, listening on a port
// it chose itself and announced in its start-up banner.
type daemon struct {
	name string
	cmd  *exec.Cmd
	base string // http://host:port of the HTTP front door

	addrCh  chan string   // banner's "on <addr>", delivered once
	done    chan struct{} // closed when the process has exited
	waitErr error

	mu     sync.Mutex
	gcs    []gcEvent // parsed gctrace lines, when GODEBUG=gctrace=1
	tail   []string  // last stderr lines, for error reports
	stopMu sync.Once
}

// gcEvent is one parsed gctrace line: when the harness saw it, the GC's CPU
// cost (stop-the-world + assist + background, idle-priority marking
// excluded because it only uses otherwise idle processors), and the heap
// size when the cycle started.
type gcEvent struct {
	at     time.Time
	cpuMS  float64
	heapMB float64
}

var bannerAddr = regexp.MustCompile(` on (\S+)$`)

// gctraceLine matches "gc 7 @1.2s 3%: a+b+c ms clock, a+b/c/d+e ms cpu, x->y->z MB, ...".
var gctraceLine = regexp.MustCompile(`^gc \d+ @\S+ \d+%: \S+ ms clock, (\S+) ms cpu, (\d+)->(\d+)->(\d+) MB`)

// startDaemon launches bin with args. gctrace turns on GODEBUG=gctrace=1;
// untraced runs leave GODEBUG unset so the runtime behaves as in production.
func startDaemon(name, bin string, args []string, gctrace bool) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	env := make([]string, 0, len(os.Environ())+1)
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GODEBUG=") {
			env = append(env, kv)
		}
	}
	if gctrace {
		env = append(env, "GODEBUG=gctrace=1")
	}
	cmd.Env = env
	// A daemon outlives nothing: if the benchmark dies without stopping
	// it, the kernel kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, addrCh: make(chan string, 1), done: make(chan struct{})}
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if m := bannerAddr.FindStringSubmatch(sc.Text()); m != nil && !sent {
				d.addrCh <- m[1]
				sent = true
			}
		}
	}()
	go func() {
		defer readers.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.observeStderr(sc.Text())
		}
	}()
	go func() {
		readers.Wait()
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

func (d *daemon) observeStderr(line string) {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if m := gctraceLine.FindStringSubmatch(line); m != nil {
		var cpu float64
		// a+b/c/d+e: STW sweep term + assist/background/idle mark + STW mark term.
		parts := strings.Split(m[1], "+")
		if len(parts) == 3 {
			cpu += parseF(parts[0]) + parseF(parts[2])
			mark := strings.Split(parts[1], "/")
			if len(mark) == 3 {
				cpu += parseF(mark[0]) + parseF(mark[1])
			}
		}
		d.gcs = append(d.gcs, gcEvent{at: now, cpuMS: cpu, heapMB: parseF(m[2])})
		return
	}
	d.tail = append(d.tail, line)
	if len(d.tail) > 20 {
		d.tail = d.tail[1:]
	}
}

func parseF(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// waitAddr returns the address from the start-up banner.
func (d *daemon) waitAddr(timeout time.Duration) (string, error) {
	select {
	case a := <-d.addrCh:
		return a, nil
	case <-d.done:
		return "", fmt.Errorf("%s exited before announcing its address: %v %s", d.name, d.waitErr, d.stderrTail())
	case <-time.After(timeout):
		return "", fmt.Errorf("%s: no start-up banner within %v", d.name, timeout)
	}
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// gcWindow counts the GC cycles, sums their CPU and takes the peak heap
// over gctrace lines seen in [from, to].
func (d *daemon) gcWindow(from, to time.Time) (cycles int, cpuMS, peakHeapMB float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range d.gcs {
		if e.at.Before(from) || e.at.After(to) {
			continue
		}
		cycles++
		cpuMS += e.cpuMS
		if e.heapMB > peakHeapMB {
			peakHeapMB = e.heapMB
		}
	}
	return cycles, cpuMS, peakHeapMB
}

// stop sends SIGTERM, waits for the drain, and SIGKILLs a process that does
// not exit within the grace period. It returns once the process has exited.
func (d *daemon) stop() {
	d.stopMu.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	})
}

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.done:
		return false
	default:
		return true
	}
}

// waitReady polls GET /readyz until it answers 200.
func waitReady(ctx context.Context, hc *http.Client, d *daemon) error {
	for {
		if !d.alive() {
			return fmt.Errorf("%s exited during start-up: %v %s", d.name, d.waitErr, d.stderrTail())
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		resp, err := hc.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", d.name, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// procSample is one reading of a process's kernel accounting.
type procSample struct {
	cpu   time.Duration // utime + stime
	hwmKB int64         // VmHWM: peak resident set
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat's utime and stime.
// Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// readProc reads utime+stime from /proc/<pid>/stat and VmHWM from
// /proc/<pid>/status.
func readProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// The command name (field 2) may hold spaces; fields after its closing
	// parenthesis are space-separated, utime and stime being the 12th and
	// 13th of them (fields 14 and 15 overall).
	i := strings.LastIndexByte(string(stat), ')')
	if i < 0 {
		return s, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return s, errors.New("short /proc stat")
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	s.cpu = time.Duration(ut+st) * time.Second / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				s.hwmKB, _ = strconv.ParseInt(f[1], 10, 64)
			}
		}
	}
	return s, nil
}

// resetPeakRSS restarts a process's VmHWM from its current resident set
// (Linux clear_refs code 5), so a later reading is the peak of the work
// since, not of start-up.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// scrape fetches a daemon's /metrics JSON and flattens it: counters keep
// their name, histograms contribute name.count and name.sum.
func scrape(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics?format=json", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		var n float64
		if json.Unmarshal(v, &n) == nil {
			out[k] = n
			continue
		}
		var h struct {
			Count float64 `json:"count"`
			Sum   float64 `json:"sum"`
		}
		if json.Unmarshal(v, &h) == nil {
			out[k+".count"] = h.Count
			out[k+".sum"] = h.Sum
		}
	}
	return out, nil
}

// delta subtracts two scrapes key by key.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
