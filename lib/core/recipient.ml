module Verify_request = struct
  type t = {
    orig_dir : string;
    anon_dir : string;
    policies : string option;
    policies_file : string option;
    entries : bool;
  }

  let fields =
    Wire.
      [
        field "orig_dir" str (fun r orig_dir -> { r with orig_dir });
        field "anon_dir" str (fun r anon_dir -> { r with anon_dir });
        field "policies" str (fun r p -> { r with policies = Some p });
        field "policies_file" str (fun r f -> { r with policies_file = Some f });
        field "entries" bool (fun r entries -> { r with entries });
      ]

  let blank =
    { orig_dir = ""; anon_dir = ""; policies = None; policies_file = None; entries = false }

  let of_json v =
    Wire.decoding (fun () -> Wire.decode ~required:[ "orig_dir"; "anon_dir" ] fields blank v)
end

let verify (r : Verify_request.t) =
  let parsed ~what text =
    match Spec.Query.parse text with Ok ps -> ps | Error m -> Batch.input_error "%s: %s" what m
  in
  (* Read before the simulations, so a bad policy set fails fast. *)
  let policies =
    match (r.policies, r.policies_file) with
    | Some text, _ -> Some (parsed ~what:"policies" text)
    | None, Some file -> Some (parsed ~what:file (Batch.read_file file))
    | None, None -> None
  in
  let _, orig = Batch.simulate_dir r.orig_dir in
  let _, anon = Batch.simulate_dir r.anon_dir in
  Verify.check ~entries:r.entries ?policies ~orig ~anon ()

module Redteam_request = struct
  type t = {
    orig_dir : string;
    anon_dir : string;
    attacks : string list option;
    key_range : int option;
    pii_key : Pii.Pan.key option;
    tenant : string option;
  }

  let fields =
    Wire.
      [
        field "orig_dir" str (fun r orig_dir -> { r with orig_dir });
        field "anon_dir" str (fun r anon_dir -> { r with anon_dir });
        field "attacks" strings (fun r a -> { r with attacks = Some a });
        field "key_range" int (fun r k -> { r with key_range = Some k });
        field "tenant" str (fun r t -> { r with tenant = Some t });
        field "pii_key" key (fun r k -> { r with pii_key = Some k });
      ]

  let blank =
    { orig_dir = ""; anon_dir = ""; attacks = None; key_range = None; pii_key = None;
      tenant = None }

  let of_json ~tenants v =
    Wire.decoding @@ fun () ->
    let r = Wire.decode ~required:[ "orig_dir"; "anon_dir" ] fields blank v in
    { r with pii_key = Wire.resolve ~tenants ~tenant:r.tenant r.pii_key }
end

let redteam (r : Redteam_request.t) =
  let known = Redteam.Suite.names in
  Option.iter
    (List.iter (fun a ->
         if not (List.mem a known) then
           Batch.input_error "unknown attack '%s' (known: %s)" a (String.concat ", " known)))
    r.attacks;
  let orig_configs, orig = Batch.simulate_dir r.orig_dir in
  let anon_configs, anon = Batch.simulate_dir r.anon_dir in
  Audit.check ?attacks:r.attacks ?key_range:r.key_range ?planted_key:r.pii_key ~orig_configs
    ~orig ~anon_configs ~anon ()
