(** Generic explicit-state model checker (breadth-first reachability).

    Plays the role TLA+/TLC plays in Section 5 of the paper: exhaustive
    exploration of small protocol configurations, checking safety
    invariants on every reachable state and a liveness proxy — that
    from every reachable state some goal ("all requests satisfied")
    state remains reachable, i.e. the protocol has no doomed states.
    Under weak fairness of message delivery this implies the paper's
    "eventually all requests are satisfied" property on these finite
    graphs.

    Two scale-up levers:
    - {b symmetry reduction}: states are always interned through the
      model's {!MODEL.canonicalize} (identity for models without
      symmetry), so configurations that differ only by a permutation
      of interchangeable nodes collapse into one representative;
    - {b packed states}: the visited set is exact, but keeps each
      state as its marshalled bytes rather than as a boxed value. A
      state is decoded again only to be expanded or rendered. *)

module type MODEL = sig
  (** Immutable data without closures: two equal states must marshal
      to equal bytes under [Marshal.No_sharing], since the visited set
      compares states by those bytes. *)
  type state

  val name : string
  val initial : state list

  (** All successor states with transition labels. *)
  val next : state -> (string * state) list

  (** Safety check; [Error reason] reports a violation. *)
  val invariant : state -> (unit, string) result

  (** Goal states for the liveness proxy; return [false] everywhere to
      skip the check. *)
  val goal : state -> bool

  (** Render a state (used in violation reports). *)
  val pp : Format.formatter -> state -> unit

  (** Symmetry reduction hook: map a state to the canonical
      representative of its orbit under interchangeable-node
      permutation. Use the identity if the model has no symmetry (or
      none worth exploiting). Must be idempotent, must commute with
      {!next} up to relabeling, and must preserve {!invariant} and
      {!goal} verdicts. *)
  val canonicalize : state -> state
end

type stats = {
  states : int;
  transitions : int;
  diameter : int;  (** BFS depth of the deepest state *)
  violation : (string * string list) option;
      (** invariant failure and the transition-label trace reaching it *)
  violation_state : string option;  (** rendering of the violating state *)
  violation_path : string list;
      (** renderings of every state along the violating path *)
  doomed : int option;
      (** states from which no goal state is reachable; [None] unless
          the graph closed (no truncation, no violation), since an open
          graph's unexpanded frontier would count as doomed *)
  doomed_example : string list option;
      (** transition trace to the first doomed state found *)
  goals : int;  (** reachable goal states *)
  truncated : bool;  (** hit [max_states] before closing the graph *)
}

module Make (M : MODEL) : sig
  (** [run ()] explores the model breadth-first, stopping at the first
      violation. Past [max_states] no new state is counted, but the
      frontier still drains, so every counted state has its invariant
      checked. *)
  val run : ?max_states:int -> unit -> stats
end

val pp_stats : Format.formatter -> stats -> unit
