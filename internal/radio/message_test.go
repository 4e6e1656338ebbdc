package radio

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestMessageIsPointerFree guards the layout the per-round transmit
// buffers rely on: a 24-byte Message with no pointer field, so appends
// need no write barrier and the collector never scans txmsg.
func TestMessageIsPointerFree(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Message{}) = %d, want 24", got)
	}
	typ := reflect.TypeOf(Message{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("Message.%s has kind %s; Message must hold only scalar fields", f.Name, f.Type.Kind())
		}
	}
}
