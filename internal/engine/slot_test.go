package engine

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"github.com/malleable-sched/malleable/internal/workload"
)

// maxSlotBytes bounds the engine's footprint per alive task: a
// non-clairvoyant run keeps every alive task in memory, so an overloaded
// stream's memory is this times its backlog.
const maxSlotBytes = 104

// The alive-set slot stays compact and pointer-free. A field copied in
// wholesale (an Arrival, with its Name string) would grow the slot and make
// the garbage collector scan every slot of a deep backlog; this test is what
// stops that from happening silently.
func TestLiveSlotLayout(t *testing.T) {
	if size := unsafe.Sizeof(liveTask{}); size > maxSlotBytes {
		t.Errorf("liveTask is %d bytes, want at most %d", size, maxSlotBytes)
	}
	if path, ok := pointerField(reflect.TypeOf(liveTask{}), "liveTask"); ok {
		t.Errorf("%s holds a pointer: the garbage collector would scan every slot", path)
	}
	// The walk itself must see pointers where they are: Arrival carries the
	// task's Name string.
	if _, ok := pointerField(reflect.TypeOf(Arrival{}), "Arrival"); !ok {
		t.Error("pointerField found no pointer in Arrival, which holds a string")
	}
}

// pointerField returns the path of the first field of typ that holds a
// pointer the garbage collector would trace, walking nested structs and
// arrays.
func pointerField(typ reflect.Type, path string) (string, bool) {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p, ok := pointerField(f.Type, path+"."+f.Name); ok {
				return p, true
			}
		}
		return "", false
	case reflect.Array:
		return pointerField(typ.Elem(), path+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return "", false
	default:
		return path, true
	}
}

// A cold run's growth garbage is bounded. Every slot-indexed array grows by
// doubling, so growing to a backlog of n slots allocates about twice the
// final capacity in total; append's ~1.25x step for large slices would
// allocate several times that. The stream is the large-delta class at rate
// 200 on 8 processors — the platform falls ~12x behind, the backlog climbs
// past 15k, and nearly every event is a calendar-queue operation — driven
// through a fresh Runner, so every array grows from empty. The bound is 3x
// the peak backlog's bytes in the live slots and the slot-indexed event-core
// arrays (the calendar's bucketOf/next/prev/key and the eligibility heap's
// pos/key/heap); it covers every allocation of the run, not just those.
func TestColdRunGrowthGarbageBounded(t *testing.T) {
	const n = 16384
	stream, err := workload.NewStream(workload.ArrivalConfig{
		Class:   workload.LargeDelta,
		P:       8,
		Process: workload.Poisson,
		Rate:    200,
	}, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	runner := NewRunner()
	res := &Result{}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = runner.RunStreamInto(res, 8, WDEQPolicy{}, stream, nil, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n || res.MaxAlive < 15000 {
		t.Fatalf("completed %d of %d with a peak backlog of %d, want a backlog past 15000", res.Completed, n, res.MaxAlive)
	}
	if vs := runner.LastQueueStats(); vs.VirtualEvents < res.Events*99/100 {
		t.Fatalf("%d of %d events on the virtual path, want over 99%%", vs.VirtualEvents, res.Events)
	}
	const calendarPerSlot = 3*4 + 8 // bucketOf, next, prev (int32) and key
	const heapPerSlot = 2*4 + 8     // pos, heap (int32) and key
	perSlot := uint64(unsafe.Sizeof(liveTask{})) + calendarPerSlot + heapPerSlot
	peak := uint64(res.MaxAlive) * perSlot
	total := after.TotalAlloc - before.TotalAlloc
	t.Logf("peak backlog %d, %d B/slot: %d B at peak, %d B allocated (%.2fx)",
		res.MaxAlive, perSlot, peak, total, float64(total)/float64(peak))
	if total > 3*peak {
		t.Errorf("a cold run allocated %d B, %.2fx the %d B its peak backlog holds; want at most 3x",
			total, float64(total)/float64(peak), peak)
	}
}
