package analysis

import "go/token"

// Pos is the node's source position.
func (n *Node) Pos() token.Pos {
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return n.Decl.Name.Pos()
}
