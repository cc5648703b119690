package s3

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/owned"
	"repro/internal/cloudsim/plane"
	"repro/internal/cloudsim/sim"
	"repro/internal/pricing"
)

// Presigned URLs: a principal with read access mints a time-limited
// capability token; anyone holding it can fetch the object with no
// cloud credentials at all. The file-transfer app uses this to hand a
// download link to an external recipient — combined with a sealed box
// addressed to the recipient's key, the whole AirDrop flow needs no
// account on the receiving side.

// Errors returned by the presign API.
var (
	ErrBadToken     = errors.New("s3: malformed presigned token")
	ErrTokenExpired = errors.New("s3: presigned token expired")
)

// Presign mints a token authorizing GETs of one object until expires.
// The signer must itself be authorized to read the object: a presigned
// URL delegates the signer's authority, it does not create any.
func (s *Service) Presign(principal, bucketName, key string, expires time.Time) (string, error) {
	if err := s.iam.Authorize(principal, ActionGet, objectResource(bucketName, key)); err != nil {
		return "", fmt.Errorf("s3: presign: %w", err)
	}
	payload := fmt.Sprintf("%s\x00%s\x00%d", bucketName, key, expires.Unix())
	mac := s.sign(payload)
	return base64.RawURLEncoding.EncodeToString([]byte(payload + "\x00" + string(mac))), nil
}

// GetPresigned fetches an object with a presigned token. The caller
// needs no principal; the payload is billed as internet egress for
// external callers, like any other external GET. As with Get, Data is
// the stored slice and must not be written to.
func (s *Service) GetPresigned(ctx *sim.Context, token string) (*Object, error) {
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return nil, ErrBadToken
	}
	parts := strings.SplitN(string(raw), "\x00", 4)
	if len(parts) != 4 {
		return nil, ErrBadToken
	}
	bucketName, key, expStr, mac := parts[0], parts[1], parts[2], parts[3]
	payload := fmt.Sprintf("%s\x00%s\x00%s", bucketName, key, expStr)
	if !hmac.Equal([]byte(mac), s.sign(payload)) {
		return nil, ErrBadToken
	}
	expUnix, err := strconv.ParseInt(expStr, 10, 64)
	if err != nil {
		return nil, ErrBadToken
	}
	now := s.clk.Now()
	if ctx != nil && ctx.Cursor != nil {
		now = ctx.Cursor.Now()
	}
	if now.After(time.Unix(expUnix, 0)) {
		return nil, fmt.Errorf("s3: %s/%s: %w", bucketName, key, ErrTokenExpired)
	}

	s.mu.RLock()
	b, ok := s.buckets[bucketName]
	if !ok {
		s.mu.RUnlock()
		return nil, fmt.Errorf("s3: %q: %w", bucketName, ErrNoSuchBucket)
	}
	o, ok := b.objects[key]
	if !ok {
		s.mu.RUnlock()
		return nil, fmt.Errorf("s3: %s/%s: %w", bucketName, key, ErrNoSuchKey)
	}
	cp := *o
	s.mu.RUnlock()
	owned.Check("s3 bucket", bucketName, key, cp.Data, cp.sum)

	// The token itself is the authorization, so the plane call carries
	// no IAM action; the hop is still traced, latency-modeled, and
	// metered like any other GET.
	size := int64(len(cp.Data))
	c := call(ctx, "", iam.Resource{}, size, pricing.S3GetRequests)
	c.Op = "GetPresigned"
	err = s.pl.Do(ctx, &c, func(req *plane.Request) error {
		if ctx != nil && ctx.External {
			req.MeterUsage(pricing.Usage{Kind: pricing.TransferOutGB, Quantity: float64(size) / 1e9})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &cp, nil
}

func (s *Service) sign(payload string) []byte {
	s.mu.Lock()
	if s.presignSecret == nil {
		s.presignSecret = make([]byte, 32)
		if _, err := rand.Read(s.presignSecret); err != nil {
			// Out of entropy is unrecoverable for a simulator.
			panic(fmt.Sprintf("s3: presign secret: %v", err))
		}
	}
	secret := s.presignSecret
	s.mu.Unlock()
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte(payload))
	return mac.Sum(nil)
}
