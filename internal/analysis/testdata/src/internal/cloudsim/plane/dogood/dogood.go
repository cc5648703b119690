// Package dogood runs a request plane's calls the fast way: the IAM
// resource is joined into a stack buffer from its parts, and span
// annotations are built only on traced calls, with strconv, into a
// fixed array. Reads format freely off-path. hotpath must stay silent.
package dogood

import (
	"fmt"
	"strconv"
)

// Annotation is one span annotation.
type Annotation struct{ Key, Value string }

// Call is a sketch of one service call.
type Call struct {
	Service, Op   string
	Resource      [4]string
	TransferBytes int64
}

// Plane is a sketch of one service's request pipeline.
type Plane struct {
	authorize func(resource []byte) error
	annotate  func([2]Annotation)
}

// Do authorizes the call against its resource, joined in place.
func (p *Plane) Do(c *Call, traced bool) error {
	var buf [128]byte
	r := append(append(append(append(buf[:0], c.Resource[0]...), c.Resource[1]...), c.Resource[2]...), c.Resource[3]...)
	if err := p.authorize(r); err != nil {
		return err
	}
	return p.DoHandler(c, traced)
}

// DoHandler annotates a traced call's span.
func (p *Plane) DoHandler(c *Call, traced bool) error {
	if traced {
		p.annotate([2]Annotation{{Key: "bytes", Value: strconv.FormatInt(c.TransferBytes, 10)}})
	}
	return nil
}

// Describe formats off the per-call path.
func (p *Plane) Describe(c *Call) string {
	return fmt.Sprintf("%s:%s", c.Service, c.Op)
}
