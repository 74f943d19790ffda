//! Fixture: binary target consuming the workspace API. Binaries count as
//! an external realm for `dead-pub`, so every name mentioned here is alive.

fn main() {
    let _surface = (
        lookup,
        total,
        ordered,
        bump,
        encode_all,
        dispatch,
        is_closed,
        checked,
        from_u8,
        sort_scores,
        queue_len,
        flush_frames,
        write_drained,
        render_all,
        handle,
    );
    let _op: Opcode = Opcode::Label;
}
