// Package s3 simulates the object storage service where DIY
// applications keep their encrypted state. It provides buckets of
// versioned objects with IAM-authenticated access, request/storage/
// transfer metering, and the memory-coupled I/O latency model the
// paper's prototype observed ("API calls to S3 took significantly
// longer when we allocated less memory to the function").
//
// Objects are immutable. Put takes ownership of the data it is handed,
// and Get and GetPresigned return the stored slice, not a copy: neither
// the writer nor a reader may write to it again (package owned checks
// this in tests).
package s3

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/owned"
	"repro/internal/cloudsim/plane"
	"repro/internal/cloudsim/sim"
	"repro/internal/cloudsim/sortutil"
	"repro/internal/cloudsim/trace"
	"repro/internal/crypto/envelope"
	"repro/internal/pricing"
)

func init() {
	plane.Register(
		plane.Op{Service: "s3", Method: "Put", Action: ActionPut},
		plane.Op{Service: "s3", Method: "Get", Action: ActionGet},
		plane.Op{Service: "s3", Method: "Delete", Action: ActionDelete},
		plane.Op{Service: "s3", Method: "List", Action: ActionList},
		plane.Op{Service: "s3", Method: "GetPresigned", Action: ""},
	)
}

// Actions checked against IAM.
const (
	ActionPut    = "s3:PutObject"
	ActionGet    = "s3:GetObject"
	ActionDelete = "s3:DeleteObject"
	ActionList   = "s3:ListBucket"
)

// Errors returned by the service.
var (
	ErrNoSuchBucket   = errors.New("s3: no such bucket")
	ErrNoSuchKey      = errors.New("s3: no such key")
	ErrBucketExists   = errors.New("s3: bucket already exists")
	ErrBucketNotEmpty = errors.New("s3: bucket not empty")
	// ErrPlaintextRejected is returned when a bucket with the
	// sealed-writes policy receives data that does not carry the
	// envelope-encryption header — the enforcement behind the paper's
	// "the user configures a storage provider ... to store encrypted
	// users data".
	ErrPlaintextRejected = errors.New("s3: bucket policy rejects plaintext objects")
)

// Object is a stored object and its metadata. Data is the stored
// slice and must not be written to.
type Object struct {
	Key      string
	Data     []byte
	Modified time.Time
	Version  int64
	sum      uint32 // owned.Sum(Data)
}

type bucket struct {
	objects       map[string]*Object
	version       int64
	requireSealed bool
}

// Service is the simulated object store. It is safe for concurrent use.
type Service struct {
	iam   *iam.Service
	meter *pricing.Meter
	pl    *plane.Plane
	clk   *clock.Virtual

	mu            sync.RWMutex
	buckets       map[string]*bucket
	presignSecret []byte
}

// New returns an object store wired to IAM, the meter, the network
// model and a clock for object modification timestamps.
func New(iamSvc *iam.Service, meter *pricing.Meter, model *netsim.Model, clk *clock.Virtual) *Service {
	return &Service{
		iam:     iamSvc,
		meter:   meter,
		pl:      plane.New(iamSvc, meter, model),
		clk:     clk,
		buckets: make(map[string]*bucket),
	}
}

// Plane exposes the service's request plane so wiring code can attach
// interceptors (fault injection, concurrency limits) around every op.
func (s *Service) Plane() *plane.Plane { return s.pl }

// call builds the plane descriptor for one object-store op. Every S3
// call pays the memory-coupled base latency plus payload transfer
// time, and meters one request of the given kind; a traced flow's span
// also carries the payload size.
func call(ctx *sim.Context, action string, res iam.Resource, payload int64, reqKind pricing.Kind) plane.Call {
	c := plane.Call{
		Service:  "s3",
		Op:       action,
		Action:   action,
		Resource: res,
		Latency:  plane.Latency{On: true, Hop: netsim.HopS3, MemoryCoupled: true, TransferBytes: payload},
		Fee:      pricing.Usage{Kind: reqKind, Quantity: 1},
	}
	if payload > 0 && ctx.Traced() {
		c.Annotations[0] = trace.Annotation{Key: "bytes", Value: strconv.FormatInt(payload, 10)}
	}
	return c
}

// resourcePrefix starts every bucket's and object's IAM resource name.
const resourcePrefix = "bucket/"

// objectResource names one object for IAM: "bucket/<bucket>/<key>".
func objectResource(bucketName, key string) iam.Resource {
	return iam.Resource{resourcePrefix, bucketName, "/", key}
}

// BucketResource returns the IAM resource string for bucket-level
// operations.
func BucketResource(bucketName string) string { return resourcePrefix + bucketName }

// CreateBucket provisions an empty bucket.
func (s *Service) CreateBucket(name string) error {
	if name == "" || strings.Contains(name, "/") {
		return fmt.Errorf("s3: invalid bucket name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[name]; ok {
		return fmt.Errorf("s3: %q: %w", name, ErrBucketExists)
	}
	s.buckets[name] = &bucket{objects: make(map[string]*Object)}
	return nil
}

// DeleteBucket removes an empty bucket; with force it removes the
// bucket and everything in it (the app-store "delete app and its
// data" path).
func (s *Service) DeleteBucket(name string, force bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[name]
	if !ok {
		return fmt.Errorf("s3: %q: %w", name, ErrNoSuchBucket)
	}
	if len(b.objects) > 0 && !force {
		return fmt.Errorf("s3: %q: %w", name, ErrBucketNotEmpty)
	}
	delete(s.buckets, name)
	return nil
}

// SetRequireSealed enables or disables the sealed-writes policy on a
// bucket: with it on, every Put must carry the envelope-encryption
// header. DIY deployments enable it on their state buckets.
func (s *Service) SetRequireSealed(name string, on bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[name]
	if !ok {
		return fmt.Errorf("s3: %q: %w", name, ErrNoSuchBucket)
	}
	b.requireSealed = on
	return nil
}

// BucketExists reports whether the named bucket exists.
func (s *Service) BucketExists(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.buckets[name]
	return ok
}

// Put stores an object, overwriting any previous version, and takes
// ownership of data: the caller must not write to it afterwards.
// Buckets with the sealed-writes policy reject payloads that are not
// envelope ciphertext.
func (s *Service) Put(ctx *sim.Context, bucketName, key string, data []byte) error {
	c := call(ctx, ActionPut, objectResource(bucketName, key), int64(len(data)), pricing.S3PutRequests)
	return s.pl.Do(ctx, &c, func(*plane.Request) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		b, ok := s.buckets[bucketName]
		if !ok {
			return fmt.Errorf("s3: %q: %w", bucketName, ErrNoSuchBucket)
		}
		if b.requireSealed && !envelope.IsSealed(data) {
			return fmt.Errorf("s3: %s/%s: %w", bucketName, key, ErrPlaintextRejected)
		}
		if old, ok := b.objects[key]; ok {
			owned.Check("s3 bucket", bucketName, key, old.Data, old.sum)
		}
		b.version++
		b.objects[key] = &Object{
			Key:      key,
			Data:     data,
			Modified: s.clk.Now(),
			Version:  b.version,
			sum:      owned.Sum(data),
		}
		return nil
	})
}

// Get retrieves an object. Its Data is the stored slice, which the
// caller must not write to. External callers are billed internet
// transfer out for the payload.
func (s *Service) Get(ctx *sim.Context, bucketName, key string) (*Object, error) {
	s.mu.RLock()
	var size int64
	if b, ok := s.buckets[bucketName]; ok {
		if o, ok := b.objects[key]; ok {
			size = int64(len(o.Data))
		}
	}
	s.mu.RUnlock()

	op := &getOp{s: s, ctx: ctx, bucket: bucketName, key: key, size: size}
	c := call(ctx, ActionGet, objectResource(bucketName, key), size, pricing.S3GetRequests)
	if err := s.pl.DoHandler(ctx, &c, op); err != nil {
		return nil, err
	}
	return &op.out, nil
}

// getOp is one Get's handler: its inputs and the copy of the object it
// returns share the call's one allocation.
type getOp struct {
	s           *Service
	ctx         *sim.Context
	bucket, key string
	size        int64
	out         Object
}

func (op *getOp) Handle(req *plane.Request) error {
	s := op.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[op.bucket]
	if !ok {
		return fmt.Errorf("s3: %q: %w", op.bucket, ErrNoSuchBucket)
	}
	o, ok := b.objects[op.key]
	if !ok {
		return fmt.Errorf("s3: %s/%s: %w", op.bucket, op.key, ErrNoSuchKey)
	}
	if op.ctx != nil && op.ctx.External {
		req.MeterUsage(pricing.Usage{Kind: pricing.TransferOutGB, Quantity: float64(op.size) / 1e9})
	}
	owned.Check("s3 bucket", op.bucket, op.key, o.Data, o.sum)
	op.out = *o
	return nil
}

// Delete removes an object. Deleting an absent key is not an error,
// matching S3 semantics.
func (s *Service) Delete(ctx *sim.Context, bucketName, key string) error {
	c := call(ctx, ActionDelete, objectResource(bucketName, key), 0, pricing.S3PutRequests)
	return s.pl.Do(ctx, &c, func(*plane.Request) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		b, ok := s.buckets[bucketName]
		if !ok {
			return fmt.Errorf("s3: %q: %w", bucketName, ErrNoSuchBucket)
		}
		if old, ok := b.objects[key]; ok {
			owned.Check("s3 bucket", bucketName, key, old.Data, old.sum)
		}
		delete(b.objects, key)
		return nil
	})
}

// List returns the keys in a bucket with the given prefix, sorted.
func (s *Service) List(ctx *sim.Context, bucketName, prefix string) ([]string, error) {
	var keys []string
	c := call(ctx, ActionList, iam.Resource{resourcePrefix, bucketName}, 0, pricing.S3GetRequests)
	err := s.pl.Do(ctx, &c, func(*plane.Request) error {
		s.mu.RLock()
		defer s.mu.RUnlock()
		b, ok := s.buckets[bucketName]
		if !ok {
			return fmt.Errorf("s3: %q: %w", bucketName, ErrNoSuchBucket)
		}
		keys = make([]string, 0, len(b.objects))
		for _, k := range sortutil.SortedKeys(b.objects) {
			if strings.HasPrefix(k, prefix) {
				keys = append(keys, k)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return keys, nil
}

// StorageBytes reports the total bytes currently stored in a bucket
// ("" for all buckets).
func (s *Service) StorageBytes(bucketName string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for name, b := range s.buckets {
		if bucketName != "" && name != bucketName {
			continue
		}
		for _, o := range b.objects {
			total += int64(len(o.Data))
		}
	}
	return total
}

// AccrueStorage meters GB-month storage usage for the current contents
// held over the given duration. Experiments call it to integrate the
// storage gauge over the simulated month.
func (s *Service) AccrueStorage(d time.Duration, app string) {
	gb := float64(s.StorageBytes("")) / 1e9
	months := float64(d) / float64(pricing.Month)
	s.meter.Add(pricing.Usage{Kind: pricing.S3StorageGBMo, Quantity: gb * months, App: app})
}
