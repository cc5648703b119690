package iot

import (
	"bytes"
	"encoding/json"

	"repro/internal/canonjson"
)

// Every report reads and rewrites the sealed device registry and
// decodes a device's request body, so both have hand-written codecs
// instead of encoding/json.
//
// The registry and the function's other output (the command and alert
// notices and the dashboard response) are encoded to exactly
// json.Marshal's bytes for the same value, so sealed sizes, queue and
// transfer bills and goldens are those of encoding/json. The registry
// parser accepts only those bytes (everything it reads was sealed under
// the envelope AEAD) and returns what json.Unmarshal would: null is a
// nil map, {} an empty one, and a device's key with a null value is a
// nil *Device.
//
// A report body comes from outside and is not sealed, so its decoder
// only takes a fast path for json.Marshal's exact bytes and hands any
// other body to json.Unmarshal: it accepts what json.Unmarshal accepts
// and returns what it returns.

// marshalRegistry encodes reg as json.Marshal(reg) would.
func marshalRegistry(reg *registry) ([]byte, error) {
	n := len(`{"devices":null,"queries":,"alerts":}`) +
		canonjson.IntLen(reg.Queries) + canonjson.IntLen(reg.Alerts)
	for k, d := range reg.Devices {
		n += len(k) + len(`"":,`) + deviceLen(d)
	}
	b := make([]byte, 0, n+canonjson.Headroom(n))
	b = append(b, `{"devices":`...)
	if reg.Devices == nil {
		b = append(b, "null"...)
	} else {
		var stack [16]string
		b = append(b, '{')
		for i, k := range canonjson.SortedKeys(stack[:0], reg.Devices) {
			if i > 0 {
				b = append(b, ',')
			}
			b = canonjson.AppendString(b, k)
			b = append(b, ':')
			var err error
			if d := reg.Devices[k]; d == nil {
				b = append(b, "null"...)
			} else if b, err = appendDevice(b, d); err != nil {
				return nil, err
			}
		}
		b = append(b, '}')
	}
	return appendCounts(b, reg.Queries, reg.Alerts), nil
}

// marshalDashboard encodes db as json.Marshal(db) would.
func marshalDashboard(db *Dashboard) ([]byte, error) {
	n := len(`{"devices":null,"queries":,"alerts":}`) +
		canonjson.IntLen(db.Queries) + canonjson.IntLen(db.Alerts)
	for i := range db.Devices {
		n += deviceLen(&db.Devices[i]) + len(",")
	}
	b := make([]byte, 0, n+canonjson.Headroom(n))
	b = append(b, `{"devices":`...)
	if db.Devices == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range db.Devices {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendDevice(b, &db.Devices[i]); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	return appendCounts(b, db.Queries, db.Alerts), nil
}

// appendCounts closes a registry or dashboard with its two counters.
func appendCounts(b []byte, queries, alerts int) []byte {
	b = append(b, `,"queries":`...)
	b = canonjson.AppendInt(b, queries)
	b = append(b, `,"alerts":`...)
	b = canonjson.AppendInt(b, alerts)
	return append(b, '}')
}

func appendDevice(b []byte, d *Device) ([]byte, error) {
	b = append(b, `{"name":`...)
	b = canonjson.AppendString(b, d.Name)
	b = append(b, `,"kind":`...)
	b = canonjson.AppendString(b, d.Kind)
	b = append(b, `,"registered":`...)
	b, err := canonjson.AppendTime(b, d.Registered)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"last_seen":`...)
	if b, err = canonjson.AppendTime(b, d.LastSeen); err != nil {
		return nil, err
	}
	b = append(b, `,"metrics":`...)
	if b, err = canonjson.AppendFloatMap(b, d.Metrics); err != nil {
		return nil, err
	}
	b = append(b, `,"queries":`...)
	b = canonjson.AppendInt(b, d.Queries)
	return append(b, '}'), nil
}

// deviceLen bounds the encoded length of d if no string needs
// escaping; a nil d is written as null.
func deviceLen(d *Device) int {
	if d == nil {
		return len("null")
	}
	return len(`{"name":"","kind":"","registered":,"last_seen":,"metrics":,"queries":}`) +
		len(d.Name) + len(d.Kind) + 2*canonjson.MaxTimeLen +
		canonjson.FloatMapLen(d.Metrics) + canonjson.IntLen(d.Queries)
}

// marshalCommand encodes a command notice as json.Marshal(c) would.
func marshalCommand(c *Command) []byte {
	n := len(`{"device":"","action":"","arg":""}`) + len(c.Device) + len(c.Action) + len(c.Arg)
	b := make([]byte, 0, n+canonjson.Headroom(n))
	b = append(b, `{"device":`...)
	b = canonjson.AppendString(b, c.Device)
	b = append(b, `,"action":`...)
	b = canonjson.AppendString(b, c.Action)
	if c.Arg != "" {
		b = append(b, `,"arg":`...)
		b = canonjson.AppendString(b, c.Arg)
	}
	return append(b, '}')
}

// marshalAlert encodes an alert notice as json.Marshal(a) would.
func marshalAlert(a *Alert) ([]byte, error) {
	n := len(`{"device":"","metric":"","value":,"limit":}`) + len(a.Device) + len(a.Metric) + 2*canonjson.MaxFloatLen
	b := make([]byte, 0, n+canonjson.Headroom(n))
	b = append(b, `{"device":`...)
	b = canonjson.AppendString(b, a.Device)
	b = append(b, `,"metric":`...)
	b = canonjson.AppendString(b, a.Metric)
	b = append(b, `,"value":`...)
	b, err := canonjson.AppendFloat(b, a.Value)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"limit":`...)
	if b, err = canonjson.AppendFloat(b, a.Limit); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// parseRegistry decodes bytes written by marshalRegistry.
func parseRegistry(pt []byte) (*registry, error) {
	r := canonjson.NewReader(pt)
	reg := new(registry)
	r.Expect(`{"devices":`)
	if !r.Accept("null") {
		r.Expect("{")
		reg.Devices = make(map[string]*Device)
		var k string
		for first := true; r.More('}', first); first = false {
			k = r.Key(k, first)
			reg.Devices[k] = readDevice(r)
		}
	}
	r.Expect(`,"queries":`)
	reg.Queries = r.Int()
	r.Expect(`,"alerts":`)
	reg.Alerts = r.Int()
	r.Expect("}")
	if err := r.Done(); err != nil {
		return nil, err
	}
	return reg, nil
}

func readDevice(r *canonjson.Reader) *Device {
	if r.Accept("null") {
		return nil
	}
	d := new(Device)
	r.Expect(`{"name":`)
	d.Name = r.Str()
	r.Expect(`,"kind":`)
	d.Kind = r.Str()
	r.Expect(`,"registered":`)
	d.Registered = r.Time()
	r.Expect(`,"last_seen":`)
	d.LastSeen = r.Time()
	r.Expect(`,"metrics":`)
	d.Metrics = r.FloatMap()
	r.Expect(`,"queries":`)
	d.Queries = r.Int()
	r.Expect("}")
	return d
}

// decodeReport decodes a report body as json.Unmarshal does, with the
// same result and error for every input.
func decodeReport(body []byte) (Report, error) {
	if rep, ok := readReport(body); ok {
		return rep, nil
	}
	var rep Report
	err := json.Unmarshal(body, &rep)
	return rep, err
}

// readReport is decodeReport's fast path. It reads body only if body is
// exactly json.Marshal's encoding of a Report, and reports false for
// anything else.
func readReport(body []byte) (Report, bool) {
	var rep Report
	// The body is the caller's buffer; the device name and metric keys
	// alias the Reader's input, so it reads a copy.
	r := canonjson.NewReader(bytes.Clone(body))
	r.Expect(`{"device":`)
	rep.Device = r.Str()
	r.Expect(`,"metrics":`)
	rep.Metrics = r.FloatMap()
	r.Expect("}")
	if r.Done() != nil {
		return Report{}, false
	}
	return rep, true
}
