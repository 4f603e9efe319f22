(** The recipient's two checks on a shared pair of configuration
    directories, each with one request record and one front end that the
    CLI fills from its flags and the serve daemon from its field table
    (the fields are {!Serve}'s protocol). *)

module Verify_request : sig
  type t = {
    orig_dir : string;
    anon_dir : string;
    policies : string option;  (** inline text or JSON; wins *)
    policies_file : string option;
    entries : bool;
  }

  val of_json : Netcore.Json.t -> (t, Wire.error) result
end

val verify : Verify_request.t -> Verify.result
(** Parses the policies (an {!Batch.Input_error} names ["policies"] or
    the file; default: [orig_dir]'s mined specification), then
    simulates both directories and runs {!Verify.check}. *)

module Redteam_request : sig
  type t = {
    orig_dir : string;
    anon_dir : string;
    attacks : string list option;  (** default: the whole suite *)
    key_range : int option;
    pii_key : Pii.Pan.key option;  (** planted to ground the brute force *)
    tenant : string option;
  }

  val of_json :
    tenants:(string * Pii.Pan.key) list -> Netcore.Json.t -> (t, Wire.error) result
  (** [pii_key] comes back resolved through [tenant] ({!Wire.resolve}). *)
end

val redteam : Redteam_request.t -> Audit.result
(** An attack outside {!Redteam.Suite.names} is an {!Batch.Input_error}
    listing them. Then simulates both directories and runs
    {!Audit.check}. *)
