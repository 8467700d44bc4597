type rw = R | W
type level = L1 | L2
type fill = Fill_l2 | Fill_remote | Fill_memory

type cause =
  | Cold
  | Sharing_local
  | Sharing_remote
  | Upgrade
  | Persistent_escalation
  | Recovery_delayed

let ncauses = 6

let cause_index = function
  | Cold -> 0
  | Sharing_local -> 1
  | Sharing_remote -> 2
  | Upgrade -> 3
  | Persistent_escalation -> 4
  | Recovery_delayed -> 5

let all_causes =
  [ Cold; Sharing_local; Sharing_remote; Upgrade; Persistent_escalation; Recovery_delayed ]

let cause_to_string = function
  | Cold -> "cold"
  | Sharing_local -> "sharing_local"
  | Sharing_remote -> "sharing_remote"
  | Upgrade -> "upgrade"
  | Persistent_escalation -> "persistent_escalation"
  | Recovery_delayed -> "recovery_delayed"

let rw_to_string = function R -> "R" | W -> "W"
let level_to_string = function L1 -> "L1" | L2 -> "L2"

let fill_to_string = function
  | Fill_l2 -> "l2"
  | Fill_remote -> "remote"
  | Fill_memory -> "memory"

type Sim.Engine.event +=
  | Req_issue of { tid : int; node : int; proc : int; addr : int; rw : rw }
      (** An L1 miss allocates an MSHR and a transaction begins. *)
  | Req_response of { tid : int; node : int; src : int }
      (** A response (tokens/data) for an outstanding miss reached the
          requester; the first one per [tid] ends the request phase. *)
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
    }  (** The miss completed and the processor was released. *)
  | Req_reissue of { tid : int; node : int; addr : int; retry : int }
      (** A transient request timed out and was reissued. *)
  | Net_hop of {
      dst : int;
      src : int;
      cls : string;
      queue_ns : float;
      flight_ns : float;
      arrive : Sim.Time.t;
    }
      (** Per-copy fabric timing decomposition: [queue_ns] is time spent
          waiting for a busy injection port or inter-chip link,
          [flight_ns] the remaining wire/serialization latency, and
          [arrive] the delivery time at [dst]. Keyed by (dst, arrive) so
          the span assembler can match the copy that satisfied a miss. *)
  | Mem_hop of { requester : int; ns : float }
      (** A memory controller spent [ns] (controller occupancy + DRAM)
          producing the data/tokens it is about to send to [requester]'s
          outstanding miss. *)
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
      (** A message occupied the serialized inter-chip link (or an
          on-chip crossbar port pair) for [start, finish]. *)
  | Fault_action of { src : int; dst : int; cls : string; action : string }
  | Fsm of { node : int; addr : int; fsm : string; from_state : string; to_state : string }
  | Persistent of { node : int; proc : int; addr : int; action : string }
      (** Persistent-request arbitration: escalate / activate /
          deactivate at the arbiter or the distributed tables. *)
  | Dir_indirection of { node : int; addr : int; write : bool }
      (** The home directory had to forward to a remote owner — the
          3-hop transactions the paper's broadcast avoids. *)
  | Retransmit of { src : int; dst : int; cls : string; attempt : int }
      (** Reliable-delivery mode: a dropped copy was rescheduled. *)
  | Retransmit_exhausted of { src : int; dst : int; cls : string; attempts : int }
      (** Reliable-delivery mode: the retransmit cap was reached and the
          copy abandoned after [attempts] offers, [max_retrans + 1]. *)
  | Dup_absorbed of { src : int; dst : int; cls : string }
      (** Reliable-delivery mode: the receiver absorbed a duplicated
          copy. *)
  | Epoch_bump of { node : int; addr : int; epoch : int }
      (** Token recreation: [node] raised its known epoch for [addr],
          invalidating everything it held under the old epoch. *)
  | Token_recreated of { addr : int; epoch : int; tokens : int }
      (** Token recreation: the home controller minted a fresh token set
          under [epoch]. *)
  | Stale_discard of { node : int; addr : int; epoch : int }
      (** A message stamped with a superseded epoch arrived and was
          discarded on receipt. *)
  | Node_crash of { node : int }
      (** The cache lost all state; tokens it held are destroyed. *)
  | Node_restart of { node : int }
      (** The crashed cache rejoined empty and re-issued its pending
          request. *)
  | Link_down of { src_site : int; dst_site : int }
      (** Outage model: the ordered inter-site link went down; copies
          offered to it are lost until it heals. *)
  | Link_degraded of {
      src_site : int;
      dst_site : int;
      latency_mult : float;
      drop_prob : float;
    }
      (** Outage model: the link entered a brownout — surviving copies
          pay [latency_mult] x the inter-site latency and each copy is
          lost with [drop_prob]. *)
  | Link_healed of { src_site : int; dst_site : int }
      (** Outage model: the link returned to full service. *)
