package kv

import (
	"reflect"
	"testing"

	"repro/internal/wire"
)

// FuzzUnmarshalMessage feeds arbitrary (kind, body) pairs to the
// cross-process message decoder. Whatever the input, UnmarshalMessage
// must not panic, and every body it accepts must re-marshal through
// MarshalMessage and decode to an equal payload between the same nodes.
// The seed corpus lives in testdata/fuzz/FuzzUnmarshalMessage.
func FuzzUnmarshalMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind byte, body []byte) {
		from, to, payload, err := UnmarshalMessage(kind, body)
		if err != nil {
			if payload != nil {
				t.Fatalf("rejected body returned payload %T (err %v)", payload, err)
			}
			return
		}
		want := wireValue(payload) // MarshalMessage recycles pooled boxes
		buf, ok := MarshalMessage(nil, from, to, payload)
		if !ok {
			t.Fatalf("decoded %T has no wire form", payload)
		}
		gotKind, gotBody, n, err := wire.ReadFrame(buf)
		if err != nil || n != len(buf) || gotKind != kind {
			t.Fatalf("re-marshaled frame: kind %d (want %d), n=%d of %d, err %v", gotKind, kind, n, len(buf), err)
		}
		gotFrom, gotTo, again, err := UnmarshalMessage(gotKind, gotBody)
		if err != nil {
			t.Fatalf("re-marshaled %T does not decode: %v", want, err)
		}
		if gotFrom != from || gotTo != to {
			t.Fatalf("addresses %d->%d, want %d->%d", gotFrom, gotTo, from, to)
		}
		if got := wireValue(again); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip decoded %+v, want %+v", got, want)
		}
	})
}

// wireValue is a decoded payload by value, dereferencing pooled boxes.
func wireValue(payload any) any {
	v := reflect.ValueOf(payload)
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	return v.Interface()
}
