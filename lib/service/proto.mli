(** Wire protocol of the simulation service.

    Clients speak line-framed JSON over a Unix socket: one request per
    line, one JSON object per reply line.  Two request shapes:

    - [{"op":"submit", ...}] — a simulation job.  The daemon replies
      with an [ack] line carrying the assigned job id, then exactly one
      [outcome] line when the job reaches a terminal state; [incident]
      lines may appear in between (a worker died mid-job and the job was
      requeued).  A job the daemon cannot admit gets a single [outcome]
      line with status [shed] and a typed reason plus a retry-after
      hint — shed submissions are answered, never dropped.
    - [{"op":"health"}] (alias ["stats"]) — one reply line with queue
      depth, per-worker liveness and pids, cache and latency statistics.

    A submit carries the game ([game], [dist], [alpha], [policy],
    [tie_break]), the host graph ([n] plus either complete or an edge
    list), and the trial plan ([seed], [trials], [edge_prob],
    [max_steps], [deadline]).  Initial networks are generated inside the
    host graph from [(seed, trial, n)], so a job is a pure function of
    its parameters — the daemon exploits this by canonicalizing the host
    graph and caching results: isomorphic host graphs under the same
    parameters are one cache entry, and a cached reply's [summary] is
    bit-identical to the fresh run's. *)

type shed_reason = Queue_full | Overloaded | Draining

val shed_reason_label : shed_reason -> string
(** ["queue_full"], ["overloaded"], ["draining"] — the wire strings. *)

type host = Complete of int | Edges of int * (int * int) list
    (** buildable edges: every pair, or an explicit undirected edge list
        on [n] vertices (ownership is irrelevant for hosts) *)

type job = {
  game : Model.game;
  dist : Model.dist_mode;
  alpha : Ncg_rational.Q.t;
  policy : Policy.t;
  tie_break : Engine.tie_break;
  host : host;
  seed : int;
  trials : int;  (** engine runs aggregated into one summary *)
  edge_prob : float;
      (** density of the generated initial networks beyond their random
          spanning tree (the [p] of {!Gen.random_host_network}) *)
  max_steps : int option;  (** per-trial step budget; engine default if absent *)
  deadline : float option;  (** job wall-clock budget, seconds from admission *)
}

val host_n : host -> int

val job_of_json : Json.t -> (job, string) result
(** Decodes and validates a submit body (the same object, minus [op],
    is the daemon->worker job frame).  Unknown games, non-positive
    alpha, out-of-range edges, bad probabilities etc. come back as
    [Error message] — admission rejects them with a typed error reply
    instead of letting a worker crash on them. *)

val json_of_job : job -> (string * Json.t) list
(** The submit body fields (no ["op"]); [Json.Obj] of these plus
    [("op", Str "submit")] is a valid request line. *)

val params_fingerprint : job -> string
(** Every job parameter except the host graph, serialized — the
    non-graph half of the result-cache key. *)

(** {2 Reply constructors} — the exact shapes the daemon emits. *)

val ack : id:int -> tag:Json.t -> Json.t
val error : message:string -> tag:Json.t -> Json.t

val outcome_shed :
  id:int -> tag:Json.t -> reason:shed_reason -> retry_after:float -> Json.t

val outcome_completed :
  id:int ->
  tag:Json.t ->
  attempts:int ->
  cached:bool ->
  summary:Json.t ->
  Json.t

val outcome_deadline_exceeded :
  id:int -> tag:Json.t -> attempts:int -> summary:Json.t option -> Json.t

val outcome_faulted :
  id:int -> tag:Json.t -> attempts:int -> cause:string -> Json.t

val incident :
  id:int -> tag:Json.t -> cause:string -> attempt:int -> retry_in:float option -> Json.t
(** Streamed to the submitting client when its in-flight job is
    interrupted by a worker death: requeued ([retry_in] set) or about to
    be faulted ([retry_in = None]; the [outcome] line follows). *)

(** {2 Worker wire} — daemon->worker job frames and worker->daemon
    results, over the worker's stdin/stdout. *)

val worker_job :
  id:int -> host:host -> budget:float option -> job -> Json.t
(** The frame the daemon writes to a worker: the job with its host
    replaced by [host] (the canonical form) and the wall-clock
    [budget] remaining until the job's deadline at dispatch time. *)

type worker_result =
  | Done of Json.t  (** the summary object *)
  | Deadline of Json.t  (** partial summary: the budget ran out mid-job *)
  | Failed of string

val worker_result_to_json : ?batch:Json.t -> id:int -> worker_result -> Json.t
(** [batch], when given, rides along as a ["batch"] field — the worker's
    trial count and cumulative {!Distcache.totals} since the worker
    process started, which the daemon surfaces through the [health] op.
    Absent on historical frames; parsers must tolerate both. *)

val worker_result_of_json :
  Json.t -> (int * worker_result, string) result
(** [(job id, result)] from a worker's stdout line.  The optional
    ["batch"] field is not part of the typed result — the daemon reads it
    straight off the frame. *)

val summary_to_json : Stats.summary -> Json.t
(** [avg_steps] is [null] when no trial converged ([nan] has no JSON
    rendering); all other fields are integers. *)
