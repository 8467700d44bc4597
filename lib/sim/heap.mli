(** The engine's event queue: a 4-ary min-heap of [unit -> unit] thunks
    keyed by [(key, seq)] pairs.

    [seq] breaks ties so that entries with equal keys pop in ascending
    [seq] (for the engine: scheduling) order, which keeps event
    processing deterministic. Keys, seqs and cell numbers live in
    parallel int arrays, and a thunk stays in its cell from push to
    pop, so sifts move only unboxed ints and each entry costs two
    pointer writes (its thunk at push, a filler over it at pop) however
    many levels it moves. Push and pop allocate nothing once the arrays
    have grown to the peak population, and a popped thunk is no longer
    reachable from the heap. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

(** [push h ~key ~seq f] inserts [f] with priority [(key, seq)]. *)
val push : t -> key:int -> seq:int -> (unit -> unit) -> unit

(** The minimum key, or [max_int] when the heap is empty (keys are
    simulated times, far below [max_int]). Read it before {!pop} to
    learn the popped entry's key. *)
val min_key : t -> int

(** The minimum entry's seq. Meaningless when the heap is empty. *)
val min_seq : t -> int

(** [pop h] removes the minimum entry and returns its thunk.
    @raise Invalid_argument if the heap is empty. *)
val pop : t -> (unit -> unit)
