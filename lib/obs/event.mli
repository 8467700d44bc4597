(** The structured event vocabulary. Constructors extend
    {!Sim.Engine.event}, so any layer that sees the engine can emit
    them; nothing below [lib/obs] needs to link against this library.

    Instrumented call sites follow the pattern

    {[ if Sim.Engine.tracing e then
         Sim.Engine.emit e (Obs.Event.Req_issue { ... }) ]}

    which costs one branch on untraced runs — no allocation, no
    formatting. *)

type rw = R | W
type level = L1 | L2

(** Where a miss was filled from: the local chip's shared L2, a remote
    chip's cache, or memory. *)
type fill = Fill_l2 | Fill_remote | Fill_memory

(** Why a miss happened / why it cost what it did. Protocols tag every
    retire with exactly one cause; when several apply the most specific
    wins, in decreasing priority: recovery, persistent escalation,
    upgrade, then the fill source (memory = cold, remote chip, local
    chip sharing). *)
type cause =
  | Cold  (** filled from DRAM — first touch or capacity *)
  | Sharing_local  (** data came from the local chip (L2 or sibling L1) *)
  | Sharing_remote  (** data crossed the inter-chip fabric *)
  | Upgrade  (** write to a line already held readable *)
  | Persistent_escalation  (** transient retries exhausted; persistent request *)
  | Recovery_delayed  (** recreation/crash-restart delayed the completion *)

val ncauses : int
val cause_index : cause -> int

(** All causes in {!cause_index} order. *)
val all_causes : cause list

val cause_to_string : cause -> string
val rw_to_string : rw -> string
val level_to_string : level -> string
val fill_to_string : fill -> string

type Sim.Engine.event +=
  | Req_issue of { tid : int; node : int; proc : int; addr : int; rw : rw }
  | Req_response of { tid : int; node : int; src : int }
  | Req_retire of {
      tid : int;
      node : int;
      proc : int;
      addr : int;
      rw : rw;
      fill : fill;
      retries : int;
      persistent : bool;
      cause : cause;
    }
  | Req_reissue of { tid : int; node : int; addr : int; retry : int }
  | Net_hop of {
      dst : int;
      src : int;
      cls : string;
      queue_ns : float;
      flight_ns : float;
      arrive : Sim.Time.t;
    }
  | Mem_hop of { requester : int; ns : float }
  | Lookup of { node : int; level : level; addr : int; hit : bool }
  | Msg_send of { src : int; dst : int; cls : string; bytes : int; label : string }
  | Msg_deliver of { src : int; dst : int; cls : string; label : string }
  | Link_xfer of {
      src_site : int;
      dst_site : int;
      cls : string;
      bytes : int;
      start : Sim.Time.t;
      finish : Sim.Time.t;
    }
  | Fault_action of { src : int; dst : int; cls : string; action : string }
  | Fsm of { node : int; addr : int; fsm : string; from_state : string; to_state : string }
  | Persistent of { node : int; proc : int; addr : int; action : string }
  | Dir_indirection of { node : int; addr : int; write : bool }
  | Retransmit of { src : int; dst : int; cls : string; attempt : int }
  | Retransmit_exhausted of { src : int; dst : int; cls : string; attempts : int }
  | Dup_absorbed of { src : int; dst : int; cls : string }
  | Epoch_bump of { node : int; addr : int; epoch : int }
  | Token_recreated of { addr : int; epoch : int; tokens : int }
  | Stale_discard of { node : int; addr : int; epoch : int }
  | Node_crash of { node : int }
  | Node_restart of { node : int }
  | Link_down of { src_site : int; dst_site : int }
  | Link_degraded of {
      src_site : int;
      dst_site : int;
      latency_mult : float;
      drop_prob : float;
    }
  | Link_healed of { src_site : int; dst_site : int }
