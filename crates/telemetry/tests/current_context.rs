//! The thread's current trace context: spans are current while open,
//! guards restore what they replaced (even when dropped out of order),
//! and an explicit `enter` carries a context across a thread hop.
//!
//! Each test runs on its own thread, so the thread-local contexts never
//! interfere; the spans they record go to this binary's own collector.

use lightweb_telemetry::trace::{current, enter, maybe_child, TraceContext, TraceSpan};

#[test]
fn spans_are_current_while_open() {
    assert_eq!(current(), None);
    let root = TraceSpan::root("current.root");
    assert_eq!(current(), Some(root.ctx()));
    {
        let child = maybe_child("current.child").expect("traced");
        assert_eq!(child.ctx().parent_id, root.ctx().span_id);
        assert_eq!(current(), Some(child.ctx()));
        let nested = TraceSpan::child_or_root("current.nested");
        assert_eq!(nested.ctx().parent_id, child.ctx().span_id);
    }
    assert_eq!(current(), Some(root.ctx()));
    drop(root);
    assert_eq!(current(), None);
    assert!(maybe_child("current.untraced").is_none());
    let fresh = TraceSpan::child_or_root("current.fresh");
    assert_eq!(fresh.ctx().parent_id, 0, "nothing current: a new trace");
}

#[test]
fn entering_none_hides_the_outer_context() {
    let outer = TraceSpan::root("enter.outer");
    {
        let _untraced = enter(None);
        assert_eq!(current(), None);
        assert!(maybe_child("enter.hidden").is_none());
    }
    assert_eq!(current(), Some(outer.ctx()));
}

#[test]
fn out_of_order_drops_restore_the_outer_context() {
    let outer = TraceContext::root();
    let _entered = enter(Some(outer));
    let a = TraceSpan::child(&outer, "order.a");
    let b = TraceSpan::child(&a.ctx(), "order.b");
    assert_eq!(current(), Some(b.ctx()));
    // The outer span goes first: the context it was opened under
    // comes back, not the inner span's.
    drop(a);
    assert_eq!(current(), Some(outer));
    drop(b);
    assert_eq!(current(), Some(outer));
    // Later spans still nest normally.
    let c = maybe_child("order.c").unwrap();
    assert_eq!(c.ctx().parent_id, outer.span_id);
    drop(c);
    assert_eq!(current(), Some(outer));
}

#[test]
fn entered_context_crosses_a_thread_hop() {
    let root = TraceSpan::root("hop.root");
    let ctx = current();
    let child = std::thread::spawn(move || {
        assert_eq!(current(), None, "a new thread starts untraced");
        let _entered = enter(ctx);
        maybe_child("hop.worker").map(|s| s.ctx())
    })
    .join()
    .unwrap()
    .expect("worker traced under the entered context");
    assert_eq!(child.trace_id, root.ctx().trace_id);
    assert_eq!(child.parent_id, root.ctx().span_id);
}
