(** Model-checkable flat MOESI directory protocol.

    The comparison point of Section 5: a single-level directory
    protocol (the paper's "simplified, non-hierarchical version of
    DirectoryCMP in which all intra-CMP details are omitted"). One
    block, [caches] caches, a directory at memory with a per-block busy
    state and deferral, unblock messages, three-phase writebacks, and
    invalidation acks collected at the requester.

    Note how much larger this model is than the token substrate even
    after dropping the hierarchy — the analogue of the paper's 1025 vs
    383 non-comment TLA+ lines. Verifying the {e hierarchical}
    DirectoryCMP as such would require the cross-product of two of
    these layers and is intractable, which is exactly the paper's
    argument for flat correctness. *)

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
