//! Records in stable places: what a calendar entry or a queue names by
//! index instead of owning in a box of its own.

/// A vector of records whose indices stay put; freed places are reused.
pub struct Slab<T> {
    items: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<T> Slab<T> {
    /// A slab with room for `n` records before it allocates again.
    pub fn with_capacity(n: usize) -> Self {
        let (items, free) = (Vec::with_capacity(n), Vec::with_capacity(n));
        Slab { items, free }
    }

    /// Place `item`; returns its index.
    #[inline]
    pub fn insert(&mut self, item: T) -> u32 {
        if let Some(i) = self.free.pop() {
            self.items[i as usize] = Some(item);
            return i;
        }
        self.items.push(Some(item));
        u32::try_from(self.items.len() - 1).expect("more than 2^32 live records")
    }

    /// Take the record at `index` out; `None` if the place is free.
    #[inline]
    pub fn take(&mut self, index: u32) -> Option<T> {
        let item = self.items.get_mut(index as usize)?.take()?;
        self.free.push(index);
        Some(item)
    }

    /// Drop the record at `index` where it is, without moving it out.
    #[inline]
    pub fn remove(&mut self, index: u32) {
        if let Some(place) = self.items.get_mut(index as usize).filter(|p| p.is_some()) {
            *place = None;
            self.free.push(index);
        }
    }

    /// The record at `index`, if the place is taken.
    #[inline]
    pub fn get(&self, index: u32) -> Option<&T> {
        self.items.get(index as usize)?.as_ref()
    }

    /// The record at `index`, if the place is taken.
    #[inline]
    pub fn get_mut(&mut self, index: u32) -> Option<&mut T> {
        self.items.get_mut(index as usize)?.as_mut()
    }

    /// The records in place, with their indices.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        let items = self.items.iter().enumerate();
        items.filter_map(|(i, item)| Some((i as u32, item.as_ref()?)))
    }

    /// Places ever used, taken or free.
    #[cfg(test)]
    pub(crate) fn places(&self) -> usize {
        self.items.len()
    }

    /// Take every record out, leaving the slab empty.
    pub fn drain(&mut self) -> Vec<T> {
        self.free.clear();
        self.items.drain(..).flatten().collect()
    }
}

impl<T> std::ops::Index<u32> for Slab<T> {
    type Output = T;
    fn index(&self, index: u32) -> &T {
        self.get(index)
            .expect("a record is named only while it is placed")
    }
}

impl<T> std::ops::IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, index: u32) -> &mut T {
        self.get_mut(index)
            .expect("a record is named only while it is placed")
    }
}
