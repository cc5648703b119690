// Package owned checks the payload-ownership rule the simulated stores
// share: a payload handed to S3, DynamoDB or SQS belongs to the store
// from then on, and a read returns the stored slice itself, not a copy.
// Neither the writer nor any reader may write to it again.
//
// The rule is enforced in test binaries only. There a store records
// Sum of each payload it takes and calls Check on every later read and
// when the payload is overwritten or deleted, so a write into a stored
// or returned slice panics at the store's next touch of it.
// Outside tests (the CLIs, the benchmark) Sum is 0 and Check does
// nothing.
package owned

import (
	"fmt"
	"hash/crc32"
	"testing"
)

// Sum returns the checksum a store records for a payload it takes
// ownership of: 0 outside test binaries.
func Sum(payload []byte) uint32 {
	if !testing.Testing() {
		return 0
	}
	return crc32.ChecksumIEEE(payload)
}

// Check panics if payload no longer matches the sum Sum recorded for
// it. kind and name say where it is stored ("s3 bucket", "alice-chat"),
// key which payload it is.
func Check(kind, name, key string, payload []byte, sum uint32) {
	if testing.Testing() && crc32.ChecksumIEEE(payload) != sum {
		panic(fmt.Sprintf("%s %s: %s was written after it was stored: a payload handed to or read from a store is immutable", kind, name, key))
	}
}
