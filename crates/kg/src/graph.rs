//! An in-memory property graph modelled after DBpedia-style knowledge
//! graphs: entities with names and aliases, and properties whose values are
//! literals, links to other entities, or one-to-many entity lists.

use std::collections::HashMap;

use nexus_table::Value;

/// Identifier of an entity inside one [`KnowledgeGraph`].
pub type EntityId = u32;

/// Identifier of a property name inside one [`KnowledgeGraph`].
pub type PropId = u32;

/// The value of an entity property.
#[derive(Debug, Clone, PartialEq)]
pub enum PropertyValue {
    /// A literal scalar (number, string, boolean).
    Literal(Value),
    /// A link to a single other entity.
    Entity(EntityId),
    /// A one-to-many link (e.g. `ethnicGroup` of a country).
    EntityList(Vec<EntityId>),
}

/// An entity with its canonical name and alternative surface forms.
#[derive(Debug, Clone)]
pub struct Entity {
    /// Canonical name, e.g. `"Russia"`.
    pub name: String,
    /// Alternative names, e.g. `"Russian Federation"`.
    pub aliases: Vec<String>,
    /// Entity class, e.g. `"Country"` (DBpedia `rdf:type`-style).
    pub class: String,
}

/// An in-memory knowledge graph.
///
/// Entities carry properties; property names are interned. Lookup by
/// (possibly ambiguous) surface form is handled by the NED module
/// ([`crate::ned`]), which consumes the name index built here.
#[derive(Debug, Default)]
pub struct KnowledgeGraph {
    entities: Vec<Entity>,
    /// Per-entity property map.
    properties: Vec<HashMap<PropId, PropertyValue>>,
    prop_names: Vec<String>,
    prop_ids: HashMap<String, PropId>,
}

impl KnowledgeGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        KnowledgeGraph::default()
    }

    /// Adds an entity and returns its id.
    pub fn add_entity(&mut self, name: impl Into<String>, class: impl Into<String>) -> EntityId {
        let id = self.entities.len() as EntityId;
        self.entities.push(Entity {
            name: name.into(),
            aliases: Vec::new(),
            class: class.into(),
        });
        self.properties.push(HashMap::new());
        id
    }

    /// Adds an alias (alternative surface form) to an entity.
    pub fn add_alias(&mut self, id: EntityId, alias: impl Into<String>) {
        self.entities[id as usize].aliases.push(alias.into());
    }

    /// Replaces an entity's class.
    pub fn set_entity_class(&mut self, id: EntityId, class: impl Into<String>) {
        self.entities[id as usize].class = class.into();
    }

    /// Interns a property name.
    pub fn prop_id(&mut self, name: &str) -> PropId {
        if let Some(&id) = self.prop_ids.get(name) {
            return id;
        }
        let id = self.prop_names.len() as PropId;
        self.prop_names.push(name.to_string());
        self.prop_ids.insert(name.to_string(), id);
        id
    }

    /// Looks up an interned property name without creating it.
    pub fn lookup_prop(&self, name: &str) -> Option<PropId> {
        self.prop_ids.get(name).copied()
    }

    /// The name of an interned property.
    pub fn prop_name(&self, id: PropId) -> &str {
        &self.prop_names[id as usize]
    }

    /// Sets a property on an entity (overwrites any previous value).
    pub fn set_property(&mut self, id: EntityId, prop: &str, value: PropertyValue) {
        let pid = self.prop_id(prop);
        self.properties[id as usize].insert(pid, value);
    }

    /// Convenience: sets a literal property.
    pub fn set_literal(&mut self, id: EntityId, prop: &str, value: impl Into<Value>) {
        self.set_property(id, prop, PropertyValue::Literal(value.into()));
    }

    /// The property map of an entity.
    pub fn properties_of(&self, id: EntityId) -> &HashMap<PropId, PropertyValue> {
        &self.properties[id as usize]
    }

    /// A specific property of an entity.
    pub fn property(&self, id: EntityId, prop: &str) -> Option<&PropertyValue> {
        let pid = self.lookup_prop(prop)?;
        self.properties[id as usize].get(&pid)
    }

    /// The entity with the given id.
    pub fn entity(&self, id: EntityId) -> &Entity {
        &self.entities[id as usize]
    }

    /// Number of entities.
    pub fn n_entities(&self) -> usize {
        self.entities.len()
    }

    /// Number of distinct property names.
    pub fn n_properties(&self) -> usize {
        self.prop_names.len()
    }

    /// Total number of (entity, property) pairs — the triple count.
    pub fn n_triples(&self) -> usize {
        self.properties.iter().map(|m| m.len()).sum()
    }

    /// Iterates over all entity ids.
    pub fn entity_ids(&self) -> impl Iterator<Item = EntityId> + '_ {
        (0..self.entities.len() as EntityId).map(|i| i as EntityId)
    }

    /// All entities of a class.
    pub fn entities_of_class(&self, class: &str) -> Vec<EntityId> {
        self.entity_ids()
            .filter(|&id| self.entities[id as usize].class == class)
            .collect()
    }

    /// Approximate heap footprint in bytes: entity names, aliases and
    /// classes, one map slot per property, entity-list links and string
    /// literals, and the interned property names.
    pub fn approx_bytes(&self) -> u64 {
        let slot = std::mem::size_of::<(PropId, PropertyValue)>() + 8;
        let entities: usize = self
            .entities
            .iter()
            .map(|e| {
                e.name.len() + e.class.len() + e.aliases.iter().map(|a| a.len() + 24).sum::<usize>()
            })
            .sum();
        let properties: usize = self
            .properties
            .iter()
            .flat_map(|props| props.values())
            .map(|v| {
                slot + match v {
                    PropertyValue::EntityList(ids) => ids.len() * 4,
                    PropertyValue::Literal(Value::Str(s)) => s.len(),
                    _ => 0,
                }
            })
            .sum();
        let names: usize = self.prop_names.iter().map(|n| 2 * n.len() + 56).sum();
        let per_entity = std::mem::size_of::<Entity>() + 48;
        (entities + properties + names + self.entities.len() * per_entity) as u64
    }

    /// Content fingerprint of the graph: entities (names, aliases, classes)
    /// and every property triple, hashed in a canonical order so the digest
    /// is independent of property-map iteration order. Used by the resident
    /// explanation server as the knowledge-source half of its cache key.
    pub fn fingerprint(&self) -> u64 {
        let mut h = nexus_table::Fnv64::new();
        h.write_u64(self.entities.len() as u64);
        for (entity, props) in self.entities.iter().zip(&self.properties) {
            h.write_str(&entity.name);
            h.write_u64(entity.aliases.len() as u64);
            for alias in &entity.aliases {
                h.write_str(alias);
            }
            h.write_str(&entity.class);
            // HashMap iteration order is unstable: sort triples by PropId.
            let mut pids: Vec<PropId> = props.keys().copied().collect();
            pids.sort_unstable();
            h.write_u64(pids.len() as u64);
            for pid in pids {
                h.write_str(&self.prop_names[pid as usize]);
                match &props[&pid] {
                    PropertyValue::Literal(v) => {
                        h.write_u8(1);
                        match v {
                            Value::Null => h.write_u8(0),
                            Value::Int(x) => {
                                h.write_u8(1);
                                h.write_i64(*x);
                            }
                            Value::Float(x) => {
                                h.write_u8(2);
                                h.write_f64(*x);
                            }
                            Value::Str(s) => {
                                h.write_u8(3);
                                h.write_str(s);
                            }
                            Value::Bool(b) => {
                                h.write_u8(4);
                                h.write_bool(*b);
                            }
                        }
                    }
                    PropertyValue::Entity(id) => {
                        h.write_u8(2);
                        h.write_u32(*id);
                    }
                    PropertyValue::EntityList(ids) => {
                        h.write_u8(3);
                        h.write_u64(ids.len() as u64);
                        for id in ids {
                            h.write_u32(*id);
                        }
                    }
                }
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let us = kg.add_entity("United States", "Country");
        let ru = kg.add_entity("Russia", "Country");
        kg.add_alias(ru, "Russian Federation");
        let biden = kg.add_entity("Joe Biden", "Person");
        kg.set_literal(us, "hdi", 0.921);
        kg.set_literal(us, "gdp", 21_000.0);
        kg.set_literal(ru, "hdi", 0.822);
        kg.set_property(us, "leader", PropertyValue::Entity(biden));
        kg.set_literal(biden, "age", 81i64);
        kg
    }

    #[test]
    fn entities_and_properties() {
        let kg = toy();
        assert_eq!(kg.n_entities(), 3);
        assert_eq!(kg.n_properties(), 4); // hdi, gdp, leader, age
        assert_eq!(kg.n_triples(), 5);
        assert_eq!(kg.entity(0).name, "United States");
        assert_eq!(kg.entity(1).aliases, vec!["Russian Federation"]);
        assert_eq!(
            kg.property(0, "hdi"),
            Some(&PropertyValue::Literal(Value::Float(0.921)))
        );
        assert_eq!(kg.property(1, "gdp"), None);
        assert_eq!(kg.property(0, "nonexistent"), None);
    }

    #[test]
    fn property_interning_is_stable() {
        let mut kg = toy();
        let a = kg.prop_id("hdi");
        let b = kg.prop_id("hdi");
        assert_eq!(a, b);
        assert_eq!(kg.prop_name(a), "hdi");
        assert_eq!(kg.lookup_prop("hdi"), Some(a));
        assert_eq!(kg.lookup_prop("zzz"), None);
    }

    #[test]
    fn entity_links() {
        let kg = toy();
        match kg.property(0, "leader") {
            Some(PropertyValue::Entity(id)) => {
                assert_eq!(kg.entity(*id).name, "Joe Biden");
                assert_eq!(
                    kg.property(*id, "age"),
                    Some(&PropertyValue::Literal(Value::Int(81)))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn class_queries() {
        let kg = toy();
        assert_eq!(kg.entities_of_class("Country"), vec![0, 1]);
        assert_eq!(kg.entities_of_class("Person"), vec![2]);
        assert!(kg.entities_of_class("City").is_empty());
    }

    #[test]
    fn overwrite_property() {
        let mut kg = toy();
        kg.set_literal(0, "hdi", 0.5);
        assert_eq!(
            kg.property(0, "hdi"),
            Some(&PropertyValue::Literal(Value::Float(0.5)))
        );
        assert_eq!(kg.n_triples(), 5); // overwrite, not insert
    }

    #[test]
    fn fingerprint_is_content_stable() {
        // Rebuilt graphs with identical content hash identically even
        // though their internal HashMaps were populated independently.
        assert_eq!(toy().fingerprint(), toy().fingerprint());
    }

    #[test]
    fn fingerprint_changes_with_content() {
        let base = toy().fingerprint();
        let mut kg = toy();
        kg.set_literal(0, "hdi", 0.922);
        assert_ne!(base, kg.fingerprint(), "literal change");
        let mut kg = toy();
        kg.add_alias(0, "USA");
        assert_ne!(base, kg.fingerprint(), "alias change");
        let mut kg = toy();
        kg.add_entity("France", "Country");
        assert_ne!(base, kg.fingerprint(), "new entity");
    }
}
