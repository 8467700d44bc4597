(** Non-comment source lines of the hand-written models, the rough
    complexity metric the paper reports for its TLA+ specs. Counted
    from the sources when the library is built, so the figures hold
    wherever the program runs. *)

val token : int
val directory : int
val recovery : int
