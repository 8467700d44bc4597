(** DirectoryCMP: the baseline two-level MOESI hierarchical directory
    protocol (Section 2 of the paper).

    Each L2 bank keeps an intra-CMP directory of local L1 copies; each
    home memory controller keeps an inter-CMP directory of which chips
    hold a block. Both levels serialize per-block transactions with
    busy states and deferral queues, use unblock messages to close
    transactions, perform three-phase writebacks, and implement the
    migratory-sharing optimization.

    [dram_directory] selects whether inter-CMP directory lookups pay
    DRAM latency (the realistic configuration) or are free (the paper's
    unrealizable "DirectoryCMP-zero" bound). *)

val name : dram_directory:bool -> string

(** Instrumentation bundle for the fault-injection torture harness: the
    protocol handle, an invariant probe (at most one L1 in M/E per
    block, at most one chip believing itself exclusive, no M/E line on
    a chip whose quiescent directory entry is invalid — conservative
    checks only, since local invalidations are fire-and-forget), the
    state dump, and the fabric for installing a fault plan. The
    directory protocol has no timeouts, so [o_retries]/[o_persistent]
    in the probe's outstanding list are always 0/false.

    This is the protocol's one constructor; {!builder} is it with
    everything but the handle dropped. The migratory-sharing
    optimization follows [Mcmp.Config.migratory]. Fabric message labels
    are left empty: a caller that wants them in traces installs
    {!Msg.label} with {!Interconnect.Fabric.set_msg_label}. *)
type instrumented = {
  i_handle : Mcmp.Protocol.handle;
  i_probe : Mcmp.Probe.t;
  i_dump : Format.formatter -> unit -> unit;
  i_fabric : Msg.t Interconnect.Fabric.t;
}

val create_instrumented :
  dram_directory:bool ->
  unit ->
  Sim.Engine.t ->
  Mcmp.Config.t ->
  Interconnect.Traffic.t ->
  Sim.Rng.t ->
  Mcmp.Counters.t ->
  instrumented

(** [builder ~dram_directory ()] is {!create_instrumented} keeping only
    the handle — plug into {!Mcmp.Runner.run}. *)
val builder : dram_directory:bool -> unit -> Mcmp.Protocol.builder
