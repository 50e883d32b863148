package memsim

// FrameList is an intrusive doubly linked list of frames. The links
// live in the Frame itself, the way Linux threads struct page onto its
// reclaim lists through page->lru, so putting a frame on a list,
// moving it or taking it off allocates nothing. A frame is on at most
// one FrameList at a time, and Free takes a freed frame off whatever
// list still holds it. The zero value is an empty list; a list must
// not be copied once a frame is on it.
type FrameList struct {
	head, tail *Frame
	n          int
}

// Len reports the number of frames on the list.
func (l *FrameList) Len() int { return l.n }

// Front returns the first frame, or nil if the list is empty.
func (l *FrameList) Front() *Frame { return l.head }

// Back returns the last frame, or nil if the list is empty.
func (l *FrameList) Back() *Frame { return l.tail }

// Has reports whether f is on this list.
func (l *FrameList) Has(f *Frame) bool { return f.list == l }

// PushFront puts f at the front of the list. A frame already on a list
// is a caller bug (it would corrupt that list), so it panics.
func (l *FrameList) PushFront(f *Frame) {
	if f.list != nil {
		panic("memsim: PushFront of a frame that is already on a FrameList")
	}
	f.list, f.prev, f.next = l, nil, l.head
	if l.head != nil {
		l.head.prev = f
	} else {
		l.tail = f
	}
	l.head = f
	l.n++
}

// Remove takes f off the list; a no-op when f is not on it.
func (l *FrameList) Remove(f *Frame) {
	if f.list != l {
		return
	}
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		l.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		l.tail = f.prev
	}
	f.list, f.prev, f.next = nil, nil, nil
	l.n--
}

// MoveToFront moves f to the front of the list; a no-op when f is not
// on it.
func (l *FrameList) MoveToFront(f *Frame) {
	if f.list != l || l.head == f {
		return
	}
	l.Remove(f)
	l.PushFront(f)
}

// Next returns the frame behind f on its list (towards the back), or
// nil at the back or when f is on no list.
func (f *Frame) Next() *Frame { return f.next }
