package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cloudsim/sortutil"
	"repro/internal/pricing"
)

// MapNode is one service in a service map with its RED+cost rollup:
// how many spans the service served, how many carried an error
// annotation, their summed duration, and their summed list-price
// cost.
type MapNode struct {
	Service  string
	Requests int
	Errors   int
	Total    time.Duration
	Cost     pricing.Money
}

// MapEdge is one caller→callee relation: a segment whose parent
// belongs to a different service. Stats aggregate over the callee
// segments.
type MapEdge struct {
	From, To string
	Requests int
	Errors   int
	Total    time.Duration
	Cost     pricing.Money
}

// ServiceMap is the X-Ray-style service graph derived from stored
// traces: nodes are services, edges are observed caller→callee hops.
// Node and edge order is the deterministic first-seen order of the
// scan that built the map; Render sorts for display.
type ServiceMap struct {
	Traces int
	Nodes  []MapNode
	Edges  []MapEdge
}

// ServiceMap derives the service graph from the stored traces whose
// root started in [from, to] (zero bounds are open). Costs price each
// segment's own usage at the book's list price. The scan counts every
// visited trace toward the scanned dimension.
func (s *Store) ServiceMap(book *pricing.PriceBook, from, to time.Time) *ServiceMap {
	if s == nil {
		return &ServiceMap{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rows := s.windowLocked(from, to)
	s.scanned += int64(len(rows))

	m := &ServiceMap{Traces: len(rows)}
	nodeIdx := make(map[string]int)
	edgeIdx := make(map[[2]string]int)
	for _, row := range rows {
		lo, hi := s.segLo[row], s.segHi[row]
		for i := lo; i < hi; i++ {
			svc := s.svcs.Name(s.segSvc[i])
			dur := s.durLocked(i)
			cost := s.segCostLocked(i, book)
			isErr := s.hasAnnotationLocked(i, "error")

			ni, ok := nodeIdx[svc]
			if !ok {
				ni = len(m.Nodes)
				nodeIdx[svc] = ni
				m.Nodes = append(m.Nodes, MapNode{Service: svc})
			}
			n := &m.Nodes[ni]
			n.Requests++
			n.Total += dur
			n.Cost += cost
			if isErr {
				n.Errors++
			}

			p := s.segParent[i]
			if p < 0 {
				continue
			}
			from := s.svcs.Name(s.segSvc[lo+p])
			if from == svc {
				continue // sub-segment of the same service, not a hop
			}
			k := [2]string{from, svc}
			ei, ok := edgeIdx[k]
			if !ok {
				ei = len(m.Edges)
				edgeIdx[k] = ei
				m.Edges = append(m.Edges, MapEdge{From: from, To: svc})
			}
			e := &m.Edges[ei]
			e.Requests++
			e.Total += dur
			e.Cost += cost
			if isErr {
				e.Errors++
			}
		}
	}
	return m
}

func (s *Store) hasAnnotationLocked(seg int32, key string) bool {
	for a := s.annoLo[seg]; a < s.annoHi[seg]; a++ {
		if s.annoKeys[a] == key {
			return true
		}
	}
	return false
}

// Merge folds another service map into m — the control tower's
// fleet-wide rollup of per-account maps. Merging in a fixed order
// (the fleet merges account-index order) keeps node and edge order
// deterministic.
func (m *ServiceMap) Merge(o *ServiceMap) {
	if o == nil {
		return
	}
	m.Traces += o.Traces
	for _, on := range o.Nodes {
		found := false
		for i := range m.Nodes {
			if m.Nodes[i].Service == on.Service {
				m.Nodes[i].Requests += on.Requests
				m.Nodes[i].Errors += on.Errors
				m.Nodes[i].Total += on.Total
				m.Nodes[i].Cost += on.Cost
				found = true
				break
			}
		}
		if !found {
			m.Nodes = append(m.Nodes, on)
		}
	}
	for _, oe := range o.Edges {
		found := false
		for i := range m.Edges {
			if m.Edges[i].From == oe.From && m.Edges[i].To == oe.To {
				m.Edges[i].Requests += oe.Requests
				m.Edges[i].Errors += oe.Errors
				m.Edges[i].Total += oe.Total
				m.Edges[i].Cost += oe.Cost
				found = true
				break
			}
		}
		if !found {
			m.Edges = append(m.Edges, oe)
		}
	}
}

// Render prints the map as an aligned text exposition: nodes sorted
// by request count (descending, then name), edges by (from, to).
func (m *ServiceMap) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "service map — %d traces, %d services, %d edges\n",
		m.Traces, len(m.Nodes), len(m.Edges))

	nodes := append([]MapNode(nil), m.Nodes...)
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Requests != nodes[j].Requests {
			return nodes[i].Requests > nodes[j].Requests
		}
		return nodes[i].Service < nodes[j].Service
	})
	fmt.Fprintf(&sb, "  %-10s %9s %7s %11s %11s %14s\n", "SERVICE", "SPANS", "ERRORS", "AVG", "TOTAL", "COST")
	for _, n := range nodes {
		avg := time.Duration(0)
		if n.Requests > 0 {
			avg = n.Total / time.Duration(n.Requests)
		}
		fmt.Fprintf(&sb, "  %-10s %9d %7d %11s %11s %14s\n", n.Service, n.Requests, n.Errors,
			sortutil.FormatDuration(avg), sortutil.FormatDuration(n.Total),
			sortutil.FormatMoneyNanos(n.Cost.Nanodollars()))
	}

	edges := append([]MapEdge(nil), m.Edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	for _, e := range edges {
		avg := time.Duration(0)
		if e.Requests > 0 {
			avg = e.Total / time.Duration(e.Requests)
		}
		fmt.Fprintf(&sb, "  %-21s %9d %7d %11s %14s\n",
			e.From+" -> "+e.To, e.Requests, e.Errors,
			sortutil.FormatDuration(avg), sortutil.FormatMoneyNanos(e.Cost.Nanodollars()))
	}
	return sb.String()
}
