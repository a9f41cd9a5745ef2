package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one iobfleetd process the benchmark started.
type daemon struct {
	role string // "coordinator", "backend0", "backend1"
	base string // http://127.0.0.1:port
	data string // its -data directory
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
	err  error         // the process's exit status, valid after done
	log  *os.File
}

// startDaemon launches iobfleetd on a free loopback port with a fresh data
// directory and returns once it prints its listening address.
func startDaemon(bin, role, dir string, extra ...string) (*daemon, error) {
	d := &daemon{role: role, data: filepath.Join(dir, role+".data"), done: make(chan struct{})}
	log, err := os.Create(filepath.Join(dir, role+".log"))
	if err != nil {
		return nil, err
	}
	d.log = log
	args := append([]string{"-listen", "127.0.0.1:0", "-data", d.data}, extra...)
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = log
	// The daemons die with the benchmark even if it is killed outright.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		log.Close()
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	addr := make(chan string, 1)
	go func() {
		// Read the listening line, then keep copying stdout to the log so
		// the daemon never blocks on a full pipe; Wait runs only after the
		// pipe hits EOF, as exec.Cmd requires.
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(log, line)
			if !sent {
				if _, rest, ok := strings.Cut(line, "iobfleetd: listening on "); ok {
					addr <- strings.Fields(rest)[0]
					sent = true
				}
			}
		}
		io.Copy(log, out)
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = a
		return d, nil
	case <-d.done:
		log.Close()
		return nil, fmt.Errorf("%s exited before listening: %v (log %s)", role, d.err, log.Name())
	case <-time.After(20 * time.Second):
		d.kill()
		log.Close()
		return nil, fmt.Errorf("%s printed no listening line within 20s", role)
	}
}

// stop sends SIGTERM and waits for a clean drain: exit code 0.
func (d *daemon) stop() error {
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("%s: SIGTERM: %w", d.role, err)
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("%s did not drain within 30s", d.role)
	}
	if d.err != nil {
		return fmt.Errorf("%s exited uncleanly: %v", d.role, d.err)
	}
	return nil
}

// kill ends the process without ceremony and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// vmHWM is the process's peak resident set in bytes, from /proc.
func (d *daemon) vmHWM() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest) // "12345 kB"
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil || len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("%s: odd VmHWM line %q", d.role, line)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", d.role)
}

// fleetd is the service under test: one coordinator and two backends
// that register with it.
type fleetd struct {
	coord    *daemon
	backends []*daemon
}

func (f *fleetd) all() []*daemon { return append([]*daemon{f.coord}, f.backends...) }

// startFleet launches the coordinator and two registering backends and
// returns once all three answer /healthz and the coordinator lists both
// backends as live.
func startFleet(c *client, bin, dir string) (*fleetd, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleetd{}
	var err error
	if f.coord, err = startDaemon(bin, "coordinator", dir); err != nil {
		return nil, err
	}
	// The backends start side by side: each needs only the coordinator's
	// address.
	backends := make([]*daemon, 2)
	errs := make([]error, len(backends))
	var wg sync.WaitGroup
	for k := range backends {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			backends[k], errs[k] = startDaemon(bin, fmt.Sprintf("backend%d", k), dir, "-register", f.coord.base)
		}(k)
	}
	wg.Wait()
	for _, b := range backends {
		if b != nil {
			f.backends = append(f.backends, b)
		}
	}
	if err := errors.Join(errs...); err != nil {
		f.kill()
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, d := range f.all() {
		for !c.healthy(d.base) {
			if time.Now().After(deadline) {
				f.kill()
				return nil, fmt.Errorf("%s never became healthy", d.role)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for {
		n, err := c.liveBackends(f.coord.base)
		if err == nil && n == len(f.backends) {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.kill()
			return nil, fmt.Errorf("coordinator lists %d live backends, want %d (last error %v)", n, len(f.backends), err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop checks the fleet is idle, then drains every daemon, backends
// first so their goodbye reaches a live coordinator.
func (f *fleetd) stop(c *client) error {
	var errs []error
	for _, d := range f.all() {
		s, err := c.metrics(d.base, d.role)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: final scrape: %w", d.role, err))
			continue
		}
		for _, g := range []string{"iobfleetd_sweeps_running", "iobfleetd_sweeps_queued"} {
			if v := s[g]; v != 0 {
				errs = append(errs, fmt.Errorf("%s: %s = %v at shutdown, want 0", d.role, g, v))
			}
		}
	}
	for i := len(f.backends) - 1; i >= 0; i-- {
		if err := f.backends[i].stop(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := f.coord.stop(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// kill ends every daemon still running; for error paths.
func (f *fleetd) kill() {
	for _, d := range f.all() {
		if d == nil {
			continue
		}
		select {
		case <-d.done:
		default:
			d.kill()
		}
		d.log.Close()
	}
}

// rssPeaks is each daemon's VmHWM in bytes, coordinator first.
func (f *fleetd) rssPeaks() ([]int64, error) {
	var out []int64
	for _, d := range f.all() {
		b, err := d.vmHWM()
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// memberState is the part of GET /api/backends the benchmark reads.
type memberState struct {
	URL  string `json:"url"`
	Live bool   `json:"live"`
}

func decodeMembers(r io.Reader) (int, error) {
	var ms []memberState
	if err := json.NewDecoder(r).Decode(&ms); err != nil {
		return 0, err
	}
	live := 0
	for _, m := range ms {
		if m.Live {
			live++
		}
	}
	return live, nil
}
