package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host's speed drifts by 10–30% over minutes, and by up to 2× in
// bursts, as other tenants of the machine come and go — far more than
// any bound worth gating on. The benchmark therefore times a fixed
// reference kernel between chunks and scales each phase's host times
// by refKernel over the kernel's median time in that phase. A scaled
// time is what the work would have taken at the reference speed; the
// unscaled values are printed beside them.
//
// The kernel is what the simulator does most: it allocates and walks
// pointer-rich structures, keeping the collector busy, and round-trips
// JSON documents. Tenants slow such code through the shared caches and
// memory far more than they slow cache-resident arithmetic, which
// tracks the workloads poorly. The kernel is the benchmark's own code,
// touching no simulator package, so no change to the simulator can
// move it. It runs in a child process, so its garbage collection never
// depends on the simulator's heap, and on as many goroutines as the
// workload keeps busy. One timing can swing by 20%, so each phase takes
// about 64 and uses their median.

// refKernel is the kernel's median CPU time per round per goroutine on
// the reference machine, a 2-vCPU Intel Xeon VM at 2.0 GHz.
const refKernel = 7 * time.Millisecond

// kernelEnv, when set in a process's environment, makes it a kernel
// child serving timings on that many goroutines.
const kernelEnv = "DIYBENCH_KERNEL"

// timingsPerPhase is how many kernel timings a phase aims for.
const timingsPerPhase = 64

type kernelNode struct {
	left, right *kernelNode
	name        string
}

func kernelTree(depth int, name string) *kernelNode {
	n := &kernelNode{name: name}
	if depth > 0 {
		n.left = kernelTree(depth-1, name+"l")
		n.right = kernelTree(depth-1, name+"r")
	}
	return n
}

func (n *kernelNode) size() int {
	if n == nil {
		return 0
	}
	return len(n.name) + n.left.size() + n.right.size()
}

type kernelMsg struct {
	ID   int       `json:"id"`
	From string    `json:"from"`
	At   time.Time `json:"at"`
	Body string    `json:"body"`
}

// kernelRound is one round of the reference kernel.
func kernelRound(rng *rand.Rand) error {
	for i := 0; i < 2; i++ {
		if kernelTree(13, "").size() == 0 {
			return fmt.Errorf("kernel: empty tree")
		}
	}
	var doc []kernelMsg
	for i := 0; i < 150; i++ {
		doc = append(doc, kernelMsg{
			ID: i, From: "owner", At: time.Unix(int64(i), 0),
			Body: strings.Repeat("x", 60+rng.Intn(120)),
		})
		if i%10 == 9 {
			b, err := json.Marshal(doc)
			if err != nil {
				return err
			}
			var back []kernelMsg
			if err := json.Unmarshal(b, &back); err != nil {
				return err
			}
		}
	}
	return nil
}

// serveKernel is the kernel child: for each line on stdin it runs one
// round on each of procs goroutines and prints the process CPU time
// per goroutine, in nanoseconds. It returns when stdin closes.
func serveKernel(procs int) error {
	if err := kernelRound(rand.New(rand.NewSource(0))); err != nil { // warm the heap
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		c0 := cpuTime()
		errs := make([]error, procs)
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				errs[p] = kernelRound(rand.New(rand.NewSource(int64(p))))
			}(p)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if _, err := fmt.Println(int64(cpuTime()-c0) / int64(procs)); err != nil {
			return err
		}
	}
	return in.Err()
}

// kernelChild serves kernel timings until stdin closes if this process
// was started as a kernel child, and reports whether it was.
func kernelChild() (bool, error) {
	v := os.Getenv(kernelEnv)
	if v == "" {
		return false, nil
	}
	procs, err := strconv.Atoi(v)
	if err != nil {
		return true, err
	}
	return true, serveKernel(procs)
}

// calibrator drives a kernel child and collects its timings.
type calibrator struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	timings []time.Duration
}

// startCalibrator starts a kernel child of this executable running on
// procs goroutines.
func startCalibrator(procs int) (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), kernelEnv+"="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	return &calibrator{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// mark takes n kernel timings. The caller is idle meanwhile, so the
// kernel has the cores to itself.
func (c *calibrator) mark(n int) error {
	for i := 0; i < n; i++ {
		if _, err := io.WriteString(c.in, "\n"); err != nil {
			return fmt.Errorf("calibrator: %w", err)
		}
		line, err := c.out.ReadString('\n')
		if err != nil {
			return fmt.Errorf("calibrator: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
		if err != nil {
			return fmt.Errorf("calibrator: %w", err)
		}
		c.timings = append(c.timings, time.Duration(ns))
	}
	return nil
}

// scale returns the factor converting host time measured over the
// timings taken since the last call to reference-speed time.
func (c *calibrator) scale() float64 {
	ts := make([]float64, len(c.timings))
	for i, t := range c.timings {
		ts[i] = float64(t)
	}
	c.timings = c.timings[:0]
	return ratio(float64(refKernel), median(ts))
}

// close stops the kernel child and waits for it to exit.
func (c *calibrator) close() error {
	if err := c.in.Close(); err != nil {
		return err
	}
	return c.cmd.Wait()
}

// heapWatch averages the live heap each GC cycle finds while it is on:
// a finalizer on a fresh sentinel runs once per cycle. Unlike peak RSS,
// which swings ±15% between identical runs with GC timing, the mean
// live heap is what the simulation's state holds.
type heapWatch struct {
	mu     sync.Mutex
	on     bool
	sum    float64
	cycles int
}

type sentinel struct{ _ [64]byte }

func (h *heapWatch) start() {
	h.mu.Lock()
	h.on, h.sum, h.cycles = true, 0, 0
	h.mu.Unlock()
	runtime.SetFinalizer(&sentinel{}, h.cycle)
}

func (h *heapWatch) cycle(*sentinel) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.on {
		return
	}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		h.sum += float64(s[0].Value.Uint64())
		h.cycles++
	}
	runtime.SetFinalizer(&sentinel{}, h.cycle)
}

// stop returns the mean live heap in MiB over the cycles seen.
func (h *heapWatch) stop() (mb float64, cycles int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.on = false
	return ratio(h.sum, float64(h.cycles)) / (1 << 20), h.cycles
}
