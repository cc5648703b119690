// Package linesgood writes a lambda platform's per-invocation log lines
// the fast way: the request id and the REPORT line are appended with
// strconv into a stack buffer, which the sink copies. Reads format
// freely off-path. hotpath must stay silent.
package linesgood

import (
	"fmt"
	"strconv"
	"sync"
	"time"
)

// Sink is a sketch of the log store: it copies each line's bytes.
type Sink struct {
	mu    sync.Mutex
	arena []byte
}

// Append copies the lines into the arena under the sink's lock.
func (s *Sink) Append(lines ...[]byte) {
	s.mu.Lock()
	for _, l := range lines {
		s.arena = append(s.arena, l...)
	}
	s.mu.Unlock()
}

// writeLogLines builds both lines in one stack buffer.
func writeLogLines(s *Sink, reqNum int64, run time.Duration) {
	var buf [256]byte
	b := append(buf[:0], "START RequestId: "...)
	b = strconv.AppendInt(b, reqNum, 16)
	startHi := len(b)
	b = append(b, "REPORT Duration: "...)
	b = strconv.AppendFloat(b, float64(run)/float64(time.Millisecond), 'f', 2, 64)
	s.Append(b[:startHi], b[startHi:])
}

// Invoke runs one invocation and logs it.
func Invoke(s *Sink, n int64, run time.Duration) { writeLogLines(s, n, run) }

// Summary is a read, not reachable from writeLogLines, so formatting
// here is fine.
func Summary(s *Sink) string {
	return fmt.Sprintf("%d bytes", len(s.arena))
}
