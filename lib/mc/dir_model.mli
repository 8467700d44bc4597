(** Model-checkable flat MOESI directory protocol.

    The comparison point of Section 5: a single-level directory
    protocol (the paper's "simplified, non-hierarchical version of
    DirectoryCMP in which all intra-CMP details are omitted"). One
    block, [caches] caches, a directory at memory with a per-block busy
    state and deferral, unblock messages, three-phase writebacks, and
    invalidation acks collected at the requester.

    Note how much larger this model is than the token substrate even
    after dropping the hierarchy — the analogue of the paper's 1025 vs
    383 non-comment TLA+ lines. Its state graph is not much larger: at
    [net_cap] 3 it closes at 1,749,354 states with 3 caches, 2.1x the
    token substrate's. Verifying the {e hierarchical} DirectoryCMP as
    such would compose two of these layers; the paper's argument for
    flat correctness rests on that graph, which is not measured yet
    (ROADMAP item 8).

    Deferred requests are served in FIFO order, as at the simulator's
    home: an arrival at an idle directory still queues behind them.
    Each cache's live writeback serials are renumbered 1..k in order,
    so the state stays finite. *)

type params = { caches : int; max_writes : int; net_cap : int }

val default_params : params

val flat : params -> (module Explore.MODEL)

(** {2 Symmetry-reduction internals} — see {!Token_model} for the
    contract; caches other than writer (0) and reader (1) are
    interchangeable. *)

type state

val flat_sym : params -> (module Explore.MODEL with type state = state)
val movable : params -> int list
val apply_perm : params -> (int -> int) -> state -> state
val canonicalize : params -> state -> state
