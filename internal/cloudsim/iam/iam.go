// Package iam implements the identity and access layer the simulated
// KMS, S3 and SQS services use to authenticate callers. DIY's privacy
// argument hinges on this: the key management service releases a data
// key only to the specific function role the user installed, so the
// policy evaluator is part of the trusted computing base.
//
// The model follows AWS IAM's shape: principals assume roles; roles
// carry policies; a policy is a list of statements allowing or denying
// actions on resources, with '*' wildcards. An explicit Deny always
// wins; absent any matching Allow, the request is denied.
package iam

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Effect is a statement's disposition.
type Effect string

// Statement effects.
const (
	Allow Effect = "Allow"
	Deny  Effect = "Deny"
)

// Statement grants or denies a set of actions on a set of resources.
// Actions look like "kms:Decrypt"; resources are ARN-ish strings such
// as "key/alice-chat" or "bucket/alice-mail/*".
type Statement struct {
	Effect    Effect
	Actions   []string
	Resources []string
}

// Policy is an ordered list of statements.
type Policy struct {
	Name       string
	Statements []Statement
}

// Role is an assumable identity carrying policies.
type Role struct {
	Name     string
	Policies []Policy
}

// ErrDenied is returned when policy evaluation denies a request.
var ErrDenied = errors.New("iam: access denied")

// Service stores roles and evaluates access. It is safe for concurrent
// use.
type Service struct {
	mu    sync.RWMutex
	roles map[string]*Role
}

// New returns an empty IAM service.
func New() *Service {
	return &Service{roles: make(map[string]*Role)}
}

// PutRole creates or replaces a role.
func (s *Service) PutRole(r *Role) error {
	if r == nil || r.Name == "" {
		return errors.New("iam: role must have a name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := *r
	s.roles[r.Name] = &cp
	return nil
}

// DeleteRole removes a role. Deleting an absent role is a no-op.
func (s *Service) DeleteRole(name string) {
	s.mu.Lock()
	delete(s.roles, name)
	s.mu.Unlock()
}

// Role returns a role by name.
func (s *Service) Role(name string) (*Role, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.roles[name]
	return r, ok
}

// Authorize evaluates whether the principal (a role name) may perform
// action on resource. It returns nil if allowed and an error wrapping
// ErrDenied otherwise.
func (s *Service) Authorize(principal, action, resource string) error {
	s.mu.RLock()
	role, ok := s.roles[principal]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("iam: unknown principal %q performing %s on %s: %w",
			principal, action, resource, ErrDenied)
	}
	allowed := false
	for _, p := range role.Policies {
		for _, st := range p.Statements {
			if !matchAny(st.Actions, action) || !matchAny(st.Resources, resource) {
				continue
			}
			if st.Effect == Deny {
				return fmt.Errorf("iam: %q explicitly denied %s on %s by policy %q: %w",
					principal, action, resource, p.Name, ErrDenied)
			}
			allowed = true
		}
	}
	if !allowed {
		return fmt.Errorf("iam: %q has no policy allowing %s on %s: %w",
			principal, action, resource, ErrDenied)
	}
	return nil
}

// matchAny reports whether any pattern matches the value.
func matchAny(patterns []string, value string) bool {
	for _, p := range patterns {
		if Match(p, value) {
			return true
		}
	}
	return false
}

// Match reports whether an IAM-style pattern matches a value. '*'
// matches any run of characters (including '/'); all other characters
// match literally. The empty pattern matches only the empty value.
func Match(pattern, value string) bool {
	// Fast paths.
	if pattern == "*" {
		return true
	}
	if !strings.Contains(pattern, "*") {
		return pattern == value
	}
	parts := strings.Split(pattern, "*")
	// First segment must prefix-match.
	if !strings.HasPrefix(value, parts[0]) {
		return false
	}
	value = value[len(parts[0]):]
	// Middle segments must appear in order.
	for _, seg := range parts[1 : len(parts)-1] {
		idx := strings.Index(value, seg)
		if idx < 0 {
			return false
		}
		value = value[idx+len(seg):]
	}
	// Last segment must suffix-match.
	return strings.HasSuffix(value, parts[len(parts)-1])
}

// AllowStatement is a convenience constructor for an Allow statement.
func AllowStatement(actions, resources []string) Statement {
	return Statement{Effect: Allow, Actions: actions, Resources: resources}
}

// DenyStatement is a convenience constructor for a Deny statement.
func DenyStatement(actions, resources []string) Statement {
	return Statement{Effect: Deny, Actions: actions, Resources: resources}
}
