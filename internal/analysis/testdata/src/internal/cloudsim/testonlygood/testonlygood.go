// Package testonlygood references every exported function from loaded
// code — by call, method value, package-level alias, interface
// dispatch, or generic instantiation; testonly must stay silent.
package testonlygood

import (
	"fmt"
	"io"
)

// Shape is a module interface; calling Area through it reaches every
// implementation.
type Shape interface{ Area() int }

// Square implements Shape.
type Square struct{ Side int }

// Area is reached only through Shape.
func (s Square) Area() int { return s.Side * s.Side }

// String is exempt: fmt calls it on any value handed to it.
func (s Square) String() string { return fmt.Sprint(s.Side) }

// Total calls Area through the interface.
func Total(shapes []Shape) int {
	n := 0
	for _, s := range shapes {
		n += s.Area()
	}
	return n
}

// Counter's Inc is referenced as a method value.
type Counter struct{ n int }

// Inc is taken as a method value below.
func (c *Counter) Inc() { c.n++ }

// Helper is referenced by a package-level alias.
func Helper() int { return 3 }

// Alias names Helper without calling it.
var Alias = Helper

// Max is generic; an instantiated call references its origin.
func Max[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Run is the entry point that references everything above.
func Run() int {
	var c Counter
	inc := c.Inc
	inc()
	return Total([]Shape{Square{Side: 2}}) + Alias() + Max(c.n, 1)
}

func init() { _ = Run() }

// The types below are reached only through a standard-library
// interface a value of theirs is converted to: whoever receives the
// interface may call the method, though no loaded code calls it. Each
// converts in a different place.

// AssignedWriter is converted in an assignment.
type AssignedWriter struct{}

// Write is reached through the io.Writer assigned below.
func (AssignedWriter) Write(p []byte) (int, error) { return len(p), nil }

// DeclaredWriter is converted in a var declaration.
type DeclaredWriter struct{}

// WriteString is reached through the io.StringWriter declared below.
func (DeclaredWriter) WriteString(s string) (int, error) { return len(s), nil }

var declared io.StringWriter = DeclaredWriter{}

// FieldReader is converted in a composite-literal field.
type FieldReader struct{}

// Read is reached through the io.LimitedReader's R field.
func (*FieldReader) Read(p []byte) (int, error) { return 0, io.EOF }

// ArgCloser is converted in a call argument.
type ArgCloser struct{}

// Close is reached through the io.Closer argument of keep.
func (ArgCloser) Close() error { return nil }

// ReturnedSeeker is converted in a return statement.
type ReturnedSeeker struct{}

// Seek is reached through the io.Seeker newSeeker returns.
func (ReturnedSeeker) Seek(int64, int) (int64, error) { return 0, nil }

// ElemByteWriter is converted as a slice element.
type ElemByteWriter struct{}

// WriteByte is reached through the []io.ByteWriter literal below.
func (*ElemByteWriter) WriteByte(byte) error { return nil }

// Embedder is converted in a channel send; its Flush is promoted from
// the embedded flusher.
type Embedder struct{ flusher }

type flusher struct{}

// Flush is reached through the embedding Embedder sent as a Flusher.
func (flusher) Flush() error { return nil }

// Flusher is a module interface no loaded code calls Flush through.
type Flusher interface{ Flush() error }

func keep(io.Closer) {}

func newSeeker() io.Seeker { return ReturnedSeeker{} }

func init() {
	var w io.Writer
	w = AssignedWriter{}
	_ = w
	_ = io.LimitedReader{R: &FieldReader{}, N: 1}
	keep(ArgCloser{})
	_ = newSeeker()
	_ = []io.ByteWriter{&ElemByteWriter{}}
	ch := make(chan Flusher, 1)
	ch <- Embedder{}
}
