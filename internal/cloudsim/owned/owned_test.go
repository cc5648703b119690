package owned

import (
	"strings"
	"testing"
)

func TestCheckCatchesAWrite(t *testing.T) {
	payload := []byte("sealed room document")
	sum := Sum(payload)
	Check("s3 bucket", "alice-chat", "room", payload, sum) // unchanged: silent

	payload[3] ^= 1
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "s3 bucket alice-chat: room ") {
			t.Fatalf("Check after a write: panic %q, want one naming the bucket and key", msg)
		}
	}()
	Check("s3 bucket", "alice-chat", "room", payload, sum)
}
